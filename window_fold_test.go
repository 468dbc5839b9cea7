package streamcard

// Tests for the windowed analytics read path. Users, RangeUsers, NumUsers
// and TopK stream each user's windowed sum from the current generation and
// the epoch's shared fold of the sealed generations; every value they
// report must equal that user's Estimate bit for bit, and the users they
// report must be exactly those present in some live generation's table,
// through every path that moves the sealed generations.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
)

// foldSketches are the two generation types a window folds.
var foldSketches = []struct {
	name  string
	build func() Estimator
}{
	{"FreeRS", func() Estimator { return NewFreeRS(1<<15, WithSeed(3)) }},
	{"FreeBS", func() Estimator { return NewFreeBS(1<<15, WithSeed(3)) }},
}

// foldReads is the read surface of a window view or a sharded view.
type foldReads interface {
	AnytimeEstimator
	UserRanger
}

// foldBatch is one epoch's traffic: random users (user 0 included), plus a
// marker user of its own, above every random user, so each generation's
// largest user is present in that generation alone.
func foldBatch(seed uint64) []Edge {
	edges := randomEdges(seed, 3000, 600, 4000)
	for i := uint64(0); i < 5; i++ {
		edges = append(edges, Edge{User: 1<<62 + seed, Item: i})
	}
	return edges
}

// wantReads is the reference answer for v, built from point reads only (so
// it never builds the sealed fold): every user present in a generation
// table of v, with its Estimate, in Users' order — ascending, and shard by
// shard on a sharded view.
func wantReads(v foldReads) []Spreader {
	users := map[uint64]bool{}
	member := func(w *Windowed) {
		for _, g := range w.gens {
			g.RangeUsers(func(u uint64, _ float64) { users[u] = true })
		}
	}
	shard := func(uint64) int { return 0 }
	switch v := v.(type) {
	case *Windowed:
		member(v)
	case *ShardedView:
		for _, s := range v.views {
			member(s.(*Windowed))
		}
		shard = v.parent.ShardIndex
	}
	pairs := make([]Spreader, 0, len(users))
	for u := range users {
		pairs = append(pairs, Spreader{User: u, Estimate: v.Estimate(u)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if si, sj := shard(pairs[i].User), shard(pairs[j].User); si != sj {
			return si < sj
		}
		return pairs[i].User < pairs[j].User
	})
	return pairs
}

// sameBits reports whether a and b are the same user with the same
// estimate bits.
func sameBits(a, b Spreader) bool {
	return a.User == b.User && math.Float64bits(a.Estimate) == math.Float64bits(b.Estimate)
}

// checkFoldReads asserts that Users (order and values), RangeUsers,
// NumUsers and TopK on v all answer want, bit for bit.
func checkFoldReads(t *testing.T, label string, v foldReads, want []Spreader) {
	t.Helper()
	var got []Spreader
	v.Users(func(u uint64, e float64) { got = append(got, Spreader{User: u, Estimate: e}) })
	if len(got) != len(want) {
		t.Fatalf("%s: Users enumerated %d users, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: Users #%d = user %d %v, want user %d with Estimate %v",
				label, i, got[i].User, got[i].Estimate, want[i].User, want[i].Estimate)
		}
	}

	byUser := make(map[uint64]float64, len(want))
	for _, p := range want {
		byUser[p.User] = p.Estimate
	}
	seen := make(map[uint64]bool, len(want))
	v.RangeUsers(func(u uint64, e float64) {
		w, ok := byUser[u]
		if !ok || seen[u] || math.Float64bits(e) != math.Float64bits(w) {
			t.Fatalf("%s: RangeUsers user %d = %v (member %v, repeated %v), Estimate %v", label, u, e, ok, seen[u], w)
		}
		seen[u] = true
	})
	if len(seen) != len(want) {
		t.Fatalf("%s: RangeUsers visited %d users, want %d", label, len(seen), len(want))
	}
	if n := v.NumUsers(); n != len(want) {
		t.Fatalf("%s: NumUsers = %d, want %d", label, n, len(want))
	}

	ranked := slices.Clone(want)
	sortSpreaders(ranked)
	for _, k := range []int{1, 10, len(want) + 3} {
		top := TopK(v, k)
		exp := ranked[:min(k, len(ranked))]
		if len(top) != len(exp) {
			t.Fatalf("%s: TopK(%d) returned %d users, want %d", label, k, len(top), len(exp))
		}
		for i := range exp {
			if !sameBits(top[i], exp[i]) {
				t.Fatalf("%s: TopK(%d) #%d = %+v, want %+v", label, k, i, top[i], exp[i])
			}
		}
	}
}

// heldView is a view taken before a mutation, with the answer it gave.
type heldView struct {
	label string
	v     foldReads
	want  []Spreader
}

// foldHarness runs the checks for one scenario: check verifies a fresh
// view; hold keeps a view and its answer, and recheck verifies every held
// view still gives that answer after the mutation that followed it.
type foldHarness struct {
	t    *testing.T
	held []heldView
}

func (h *foldHarness) check(label string, v foldReads) {
	h.t.Helper()
	checkFoldReads(h.t, label, v, wantReads(v))
}

func (h *foldHarness) hold(label string, v foldReads) {
	h.held = append(h.held, heldView{label: label, v: v, want: wantReads(v)})
}

func (h *foldHarness) recheck() {
	h.t.Helper()
	for _, hv := range h.held {
		checkFoldReads(h.t, hv.label+", held across the mutation", hv.v, hv.want)
	}
	h.held = h.held[:0]
}

// zeroLastEntries rewrites a window checkpoint so each generation's last
// per-user entry — its largest user — holds the estimate 0: a restored
// state with zero-valued entries, which every read must still count.
func zeroLastEntries(t *testing.T, data []byte) []byte {
	t.Helper()
	k, epoch, edges, gens, err := core.UnmarshalWindow(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		g = slices.Clone(g)
		clear(g[len(g)-8:]) // the entries are the payload's tail, 16 bytes each
		gens[i] = g
	}
	out, err := core.MarshalWindow(k, epoch, edges, gens)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// zeroUsers counts the users in want whose estimate is 0.
func zeroUsers(want []Spreader) int {
	n := 0
	for _, p := range want {
		if p.Estimate == 0 {
			n++
		}
	}
	return n
}

// TestWindowedReadsEqualEstimateBitForBit: on a bare Windowed and on
// Sharded(Windowed), over FreeRS and FreeBS at k = 2 and 4, every
// enumerating read equals Estimate bit for bit after writes inside an
// epoch, after each rotation, after Merge, after UnmarshalBinary (zero-
// valued entries included) and after a Clone followed by writes — and a
// view taken before each of those still answers for its own epoch.
func TestWindowedReadsEqualEstimateBitForBit(t *testing.T) {
	for _, sk := range foldSketches {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d/Windowed", sk.name, k), func(t *testing.T) {
				foldWindowScenario(t, sk.build, k)
			})
			t.Run(fmt.Sprintf("%s/k=%d/Sharded", sk.name, k), func(t *testing.T) {
				foldShardedScenario(t, sk.build, k)
			})
		}
	}
}

func foldWindowScenario(t *testing.T, build func() Estimator, k int) {
	h := &foldHarness{t: t}
	w := NewWindowed(build, WithGenerations(k))
	o := NewWindowed(build, WithGenerations(k)) // the Merge partner, rotated in lockstep
	seed := uint64(100)
	feed := func() {
		seed++
		w.ObserveBatch(foldBatch(seed))
		o.ObserveBatch(foldBatch(seed + 1000))
	}

	for i := 0; i < 3; i++ {
		h.hold(fmt.Sprintf("epoch 0 before write %d", i), w.Snapshot())
		feed()
		h.recheck()
		h.check(fmt.Sprintf("epoch 0 after write %d", i), w.Snapshot())
	}
	for r := 1; r <= k+1; r++ {
		h.hold(fmt.Sprintf("before rotation %d", r), w.Snapshot())
		w.Rotate()
		o.Rotate()
		h.recheck()
		h.check(fmt.Sprintf("after rotation %d", r), w.Snapshot())
		for i := 0; i < 2; i++ {
			h.hold(fmt.Sprintf("epoch %d before write %d", r, i), w.Snapshot())
			feed()
			h.recheck()
			h.check(fmt.Sprintf("epoch %d after write %d", r, i), w.Snapshot())
		}
	}
	// Two rotations with no read between: the middle epoch's fold is first
	// built by a view held across the second rotation.
	h.hold("before the first of two rotations", w.Snapshot())
	w.Rotate()
	o.Rotate()
	feed()
	h.hold("between two rotations", w.Snapshot())
	w.Rotate()
	o.Rotate()
	feed()
	h.recheck()
	h.check("after two rotations", w.Snapshot())

	h.hold("before Merge", w.Snapshot())
	if err := w.Merge(o); err != nil {
		t.Fatal(err)
	}
	h.recheck()
	h.check("after Merge", w.Snapshot())
	h.hold("before a write after Merge", w.Snapshot())
	feed()
	h.recheck()
	h.check("after a write after Merge", w.Snapshot())

	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := NewWindowed(build, WithGenerations(k))
	h.hold("restore target before UnmarshalBinary", r.Snapshot())
	if err := r.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	h.recheck()
	h.check("after UnmarshalBinary", r.Snapshot())
	checkFoldReads(t, "restored against the original", r.Snapshot(), wantReads(w.Snapshot()))

	h.hold("before UnmarshalBinary of zero-valued entries", w.Snapshot())
	if err := w.UnmarshalBinary(zeroLastEntries(t, data)); err != nil {
		t.Fatal(err)
	}
	h.recheck()
	if want := wantReads(w.Snapshot()); zeroUsers(want) < k {
		t.Fatalf("restored window holds %d zero-valued users, want at least %d", zeroUsers(want), k)
	}
	h.check("after UnmarshalBinary of zero-valued entries", w.Snapshot())
	h.hold("before a write after UnmarshalBinary", w.Snapshot())
	feed()
	h.recheck()
	h.check("after a write after UnmarshalBinary", w.Snapshot())

	h.hold("original before Clone", w.Snapshot())
	c := w.Clone()
	h.check("clone", c.Snapshot())
	h.hold("clone before its write", c.Snapshot())
	seed++
	c.ObserveBatch(foldBatch(seed))
	h.recheck()
	h.check("clone after a write", c.Snapshot())
	c.Rotate()
	h.check("clone after a rotation", c.Snapshot())
	h.check("original after the clone moved", w.Snapshot())
}

// stackOver builds a Sharded over the given windows, shard i = wins[i].
func stackOver(wins []*Windowed) *Sharded {
	return NewSharded(len(wins), func(i int) Estimator { return wins[i] })
}

func foldShardedScenario(t *testing.T, build func() Estimator, k int) {
	const shards = 3
	h := &foldHarness{t: t}
	newWins := func() []*Windowed {
		wins := make([]*Windowed, shards)
		for i := range wins {
			wins[i] = NewWindowed(build, WithGenerations(k))
		}
		return wins
	}
	wins, owins := newWins(), newWins()
	s, o := stackOver(wins), stackOver(owins) // o: the Merge partner
	seed := uint64(500)
	feed := func() {
		seed++
		s.ObserveBatch(foldBatch(seed))
		o.ObserveBatch(foldBatch(seed + 1000))
	}

	for i := 0; i < 2; i++ {
		h.hold(fmt.Sprintf("epoch 0 before write %d", i), s.Snapshot())
		feed()
		h.recheck()
		h.check(fmt.Sprintf("epoch 0 after write %d", i), s.Snapshot())
	}
	for r := 1; r <= k+1; r++ {
		h.hold(fmt.Sprintf("before rotation %d", r), s.Snapshot())
		s.Rotate()
		o.Rotate()
		h.recheck()
		h.check(fmt.Sprintf("after rotation %d", r), s.Snapshot())
		h.hold(fmt.Sprintf("epoch %d before a write", r), s.Snapshot())
		feed()
		h.recheck()
		h.check(fmt.Sprintf("epoch %d after a write", r), s.Snapshot())
	}

	held := s.Snapshot()
	h.hold("stack before its windows are merged, restored and cloned", held)

	merged := make([]*Windowed, shards)
	for i := range merged {
		merged[i] = wins[i].Clone()
		if err := merged[i].Merge(owins[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := stackOver(merged)
	h.check("after Merge", m.Snapshot())
	m.ObserveBatch(foldBatch(seed + 2000))
	h.check("after a write after Merge", m.Snapshot())

	cut := s.FullSnapshot()
	restored, zeroed := newWins(), newWins()
	for i := range restored {
		data, err := cut.ShardView(i).(*Windowed).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := restored[i].UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if err := zeroed[i].UnmarshalBinary(zeroLastEntries(t, data)); err != nil {
			t.Fatal(err)
		}
	}
	r := stackOver(restored)
	h.check("after UnmarshalBinary", r.Snapshot())
	checkFoldReads(t, "restored against the original", r.Snapshot(), wantReads(s.Snapshot()))
	z := stackOver(zeroed)
	if want := wantReads(z.Snapshot()); zeroUsers(want) < k {
		t.Fatalf("restored stack holds %d zero-valued users, want at least %d", zeroUsers(want), k)
	}
	h.check("after UnmarshalBinary of zero-valued entries", z.Snapshot())
	z.Rotate()
	h.check("after a rotation of the restored stack", z.Snapshot())

	clones := make([]*Windowed, shards)
	for i := range clones {
		clones[i] = wins[i].Clone()
	}
	c := stackOver(clones)
	c.ObserveBatch(foldBatch(seed + 3000))
	h.check("clone after a write", c.Snapshot())
	h.recheck()
	h.check("original after its windows were copied", s.Snapshot())
}

// TestSealedFoldFirstReadRace: many readers take the first analytics read
// of a fresh epoch at once — all racing to build, or waiting on, the one
// sealed fold — while a writer feeds and a rotator rotates. Every reader's
// answers must agree with its own view's Estimate. Run under -race.
func TestSealedFoldFirstReadRace(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(7)) }
	wins := make([]*Windowed, 4)
	for i := range wins {
		wins[i] = NewWindowed(build, WithGenerations(3))
	}
	s := stackOver(wins)
	w := NewWindowed(build, WithGenerations(3))
	targets := []struct {
		name     string
		feed     func([]Edge)
		rotate   func()
		snapshot func() foldReads
	}{
		{"Sharded", s.ObserveBatch, s.Rotate, func() foldReads { return s.Snapshot() }},
		{"Windowed", w.ObserveBatch, w.Rotate, func() foldReads { return w.Snapshot() }},
	}

	const (
		readers = 8
		rounds  = 12
	)
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			var stop atomic.Bool
			var bg sync.WaitGroup
			bg.Add(2)
			go func() { // the writer
				defer bg.Done()
				rng := hashing.NewRNG(3)
				for !stop.Load() {
					tg.feed(randomBatch(rng, 256))
				}
			}()
			epochs := make(chan struct{})
			go func() { // the rotator
				defer bg.Done()
				defer close(epochs)
				for r := 0; r < rounds; r++ {
					time.Sleep(2 * time.Millisecond)
					tg.rotate()
					epochs <- struct{}{}
				}
			}()
			for range epochs {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						<-start
						v := tg.snapshot()
						n := 0
						var bad error
						check := func(u uint64, e float64) {
							if bad == nil && math.Float64bits(e) != math.Float64bits(v.Estimate(u)) {
								bad = fmt.Errorf("user %d read %v, Estimate %v", u, e, v.Estimate(u))
							}
						}
						switch r % 3 { // readers split across the three first reads
						case 0:
							for _, p := range TopK(v, 10) {
								check(p.User, p.Estimate)
							}
							n = v.NumUsers()
						case 1:
							n = v.NumUsers()
						}
						m := 0
						v.RangeUsers(func(u uint64, e float64) { m++; check(u, e) })
						if bad == nil && r%3 != 2 && n != m {
							bad = fmt.Errorf("NumUsers %d, RangeUsers visited %d", n, m)
						}
						if bad != nil {
							t.Error(bad)
						}
					}(r)
				}
				close(start)
				wg.Wait()
			}
			stop.Store(true)
			bg.Wait()
		})
	}
}
