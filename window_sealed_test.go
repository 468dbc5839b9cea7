package streamcard

// Tests for the sealed generations a window shares. A view or a full cut
// forks only the window's current generation and holds the sealed ones
// themselves, which is sound only while nothing writes a sealed generation
// again before it retires: not a feed, a rotation, a retire hook, a merge,
// a restore or a clone.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// heldCut is one full cut of every shard window, with the bytes of Clones
// taken at the same instant.
type heldCut struct {
	label string
	cuts  []*Windowed
	want  [][]byte
}

// readRetired reads a retired generation the way a monitor's hook might:
// its totals, its users and its checkpoint bytes.
func readRetired(g Estimator) error {
	_ = g.TotalDistinct()
	_ = g.(AnytimeEstimator).NumUsers()
	g.(UserRanger).RangeUsers(func(uint64, float64) {})
	_, err := g.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	return err
}

// TestNothingWritesASealedGeneration takes full cuts, Clones and views
// after every feed and every rotation, then writes, rotates past k (every
// generation the first cuts hold retires through a hook that reads it),
// merges into the live windows, restores them and clones them. Every cut
// must still marshal exactly as its Clone did, every view must still
// answer every read as it did, and each rotation must seal the current
// generation exactly as the cut before it held it.
func TestNothingWritesASealedGeneration(t *testing.T) {
	for _, sk := range foldSketches {
		for _, k := range []int{2, 4} {
			for _, shards := range []int{0, 3} { // 0: a bare Windowed
				name := fmt.Sprintf("%s/k=%d/Windowed", sk.name, k)
				if shards > 0 {
					name = fmt.Sprintf("%s/k=%d/Sharded", sk.name, k)
				}
				t.Run(name, func(t *testing.T) { sealedScenario(t, sk.build, k, shards) })
			}
		}
	}
}

func sealedScenario(t *testing.T, build func() Estimator, k, shards int) {
	retired := 0
	hook := WithOnRetire(func(g Estimator) {
		retired++
		if err := readRetired(g); err != nil {
			t.Errorf("retire hook: %v", err)
		}
	})
	wins := make([]*Windowed, max(shards, 1))
	for i := range wins {
		wins[i] = NewWindowed(build, WithGenerations(k), hook)
	}
	var s *Sharded
	if shards > 0 {
		s = stackOver(wins)
	}
	seed := uint64(900)
	feed := func() {
		seed++
		if s != nil {
			s.ObserveBatch(foldBatch(seed))
			return
		}
		edges := foldBatch(seed)
		wins[0].ObserveBatch(edges[:len(edges)/2])
		for _, e := range edges[len(edges)/2:] {
			wins[0].Observe(e.User, e.Item)
		}
	}
	rotate := func() {
		if s != nil {
			s.Rotate()
			return
		}
		wins[0].Rotate()
	}

	var cuts []heldCut
	var views []heldView
	hold := func(label string) {
		hc := heldCut{label: label}
		var v foldReads
		if s != nil {
			fc := s.FullSnapshot()
			for i := range wins {
				hc.cuts = append(hc.cuts, fc.ShardView(i).(*Windowed))
			}
			v = s.Snapshot()
		} else {
			hc.cuts = []*Windowed{wins[0].fullSnapshot()}
			v = wins[0].Snapshot()
		}
		for _, w := range wins {
			b, err := w.Clone().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			hc.want = append(hc.want, b)
		}
		cuts = append(cuts, hc)
		views = append(views, heldView{label: label, v: v, want: wantReads(v)})
	}
	verify := func(step string) {
		t.Helper()
		for _, hc := range cuts {
			for i, c := range hc.cuts {
				got, err := c.MarshalBinary()
				if err != nil {
					t.Fatalf("cut %s, after %s: %v", hc.label, step, err)
				}
				if !bytes.Equal(got, hc.want[i]) {
					t.Fatalf("cut %s, after %s: shard %d marshals differently from the Clone taken with it", hc.label, step, i)
				}
			}
		}
		for _, hv := range views {
			checkFoldReads(t, fmt.Sprintf("view %s, after %s", hv.label, step), hv.v, hv.want)
		}
	}

	// sealed checks the rotation between the last two holds: it seals each
	// generation exactly as the cut before it held it, one slot older.
	sealed := func() {
		t.Helper()
		before, after := cuts[len(cuts)-2], cuts[len(cuts)-1]
		for i := range wins {
			for j := 1; j < len(after.cuts[i].gens); j++ {
				a, errA := after.cuts[i].gens[j].MarshalBinary()
				b, errB := before.cuts[i].gens[j-1].MarshalBinary()
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("%s: shard %d's generation %d differs from generation %d of the cut %s (%v, %v)",
						after.label, i, j, j-1, before.label, errA, errB)
				}
			}
		}
	}

	for g := 0; g < k; g++ { // fill every generation
		if g > 0 {
			rotate()
			hold(fmt.Sprintf("after fill rotation %d", g))
			sealed()
		}
		feed()
		hold(fmt.Sprintf("after fill write %d", g))
	}
	for r := 1; r <= k+1; r++ {
		rotate()
		hold(fmt.Sprintf("after rotation %d", r))
		sealed()
		verify(fmt.Sprintf("rotation %d", r))
		feed()
		hold(fmt.Sprintf("after write %d", r))
		verify(fmt.Sprintf("write %d", r))
	}
	if want := k * len(wins); retired < want {
		t.Fatalf("the hook saw %d retirements, want at least %d", retired, want)
	}

	for i, w := range wins {
		partner := w.Clone()
		partner.ObserveBatch(foldBatch(seed + 100 + uint64(i)))
		if err := w.Merge(partner); err != nil {
			t.Fatal(err)
		}
	}
	verify("Merge into the live windows")
	for i, w := range wins {
		if err := w.UnmarshalBinary(cuts[0].want[i]); err != nil {
			t.Fatal(err)
		}
	}
	verify("UnmarshalBinary into the live windows")
	for i, w := range wins {
		c := w.Clone()
		c.ObserveBatch(foldBatch(seed + 200 + uint64(i)))
		c.Rotate()
		w.ObserveBatch(foldBatch(seed + 300 + uint64(i)))
		w.Rotate()
	}
	verify("Clone of the live windows, and writes and rotations on both")
}

// TestSealedGenerationsRaceCuts: a writer, a rotator and readers that hold
// full cuts and views while both run. Each held cut must marshal to the
// bytes it marshaled to when it was taken, and each held view must answer
// as it did; under -race, a write to a sealed generation a cut or view
// shares is also a data race.
func TestSealedGenerationsRaceCuts(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(7)) }
	wins := make([]*Windowed, 4)
	for i := range wins {
		wins[i] = NewWindowed(build, WithGenerations(3), WithOnRetire(func(g Estimator) {
			if err := readRetired(g); err != nil {
				t.Errorf("retire hook: %v", err)
			}
		}))
	}
	s := stackOver(wins)
	s.ObserveBatch(randomEdges(1, 2000, 600, 4000))

	var done atomic.Bool
	var feeders sync.WaitGroup
	feeders.Add(2)
	go func() { // writer
		defer feeders.Done()
		for i := uint64(2); !done.Load(); i++ {
			s.ObserveBatch(randomEdges(i, 256, 600, 4000))
		}
	}()
	go func() { // rotator
		defer feeders.Done()
		defer done.Store(true)
		for r := 0; r < 24; r++ {
			time.Sleep(2 * time.Millisecond)
			s.Rotate()
		}
	}()

	type held struct {
		cut  *ShardedView
		want [][]byte
		view *ShardedView
		sum  float64
	}
	marshal := func(v *ShardedView) [][]byte {
		out := make([][]byte, v.NumShards())
		for i := range out {
			b, err := v.ShardView(i).(*Windowed).MarshalBinary()
			if err != nil {
				t.Errorf("marshal a held cut: %v", err)
			}
			out[i] = b
		}
		return out
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var hold []held
			check := func(h held) bool {
				for i, b := range marshal(h.cut) {
					if !bytes.Equal(b, h.want[i]) {
						t.Errorf("a held cut's shard %d marshals differently than when it was taken", i)
						return false
					}
				}
				if sum := h.view.TotalDistinct() + float64(h.view.NumUsers()); sum != h.sum {
					t.Errorf("a held view reads %v, read %v when taken", sum, h.sum)
					return false
				}
				return true
			}
			for !done.Load() {
				cut, view := s.FullSnapshot(), s.Snapshot()
				hold = append(hold, held{cut: cut, want: marshal(cut), view: view,
					sum: view.TotalDistinct() + float64(view.NumUsers())})
				if len(hold) > 3 {
					if !check(hold[0]) {
						return
					}
					hold = hold[1:]
				}
			}
			for _, h := range hold {
				if !check(h) {
					return
				}
			}
		}()
	}
	feeders.Wait()
	readers.Wait()
}
