package streamcard

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/hashing"
)

func TestWindowedFirstEpochMatchesPlain(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1<<18, WithSeed(3)) })
	plain := NewFreeRS(1<<18, WithSeed(3))
	for i := 0; i < 5000; i++ {
		w.Observe(1, uint64(i))
		plain.Observe(1, uint64(i))
	}
	if w.Estimate(1) != plain.Estimate(1) {
		t.Fatal("first epoch must match an unwrapped estimator exactly")
	}
	if w.Epoch() != 0 || w.LiveGenerations() != 1 || w.Generations() != 2 {
		t.Fatalf("epoch=%d live=%d k=%d", w.Epoch(), w.LiveGenerations(), w.Generations())
	}
}

func TestWindowedRotationForgetsOldEpochs(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 18) })
	// Epoch 0: user 1 is a heavy hitter.
	for i := 0; i < 10000; i++ {
		w.Observe(1, uint64(i))
	}
	heavy := w.Estimate(1)
	if heavy < 8000 {
		t.Fatalf("epoch-0 estimate %v", heavy)
	}
	// One rotation: epoch-0 data still visible (previous generation).
	w.Rotate()
	if got := w.Estimate(1); math.Abs(got-heavy) > 1e-9 {
		t.Fatalf("after one rotation estimate %v, want still %v", got, heavy)
	}
	// Second rotation: epoch-0 data fully aged out (k = 2).
	w.Rotate()
	if got := w.Estimate(1); got != 0 {
		t.Fatalf("after two rotations estimate %v, want 0", got)
	}
	if w.Epoch() != 2 {
		t.Fatalf("epoch = %d", w.Epoch())
	}
}

func TestWindowedKGenerationsAgeOut(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 18) }, WithGenerations(4))
	for i := 0; i < 1000; i++ {
		w.Observe(1, uint64(i))
	}
	first := w.Estimate(1)
	for r := 1; r <= 3; r++ {
		w.Rotate()
		if got := w.Estimate(1); got != first {
			t.Fatalf("after %d rotations estimate %v, want still %v (k=4 keeps 4 generations)", r, got, first)
		}
	}
	w.Rotate() // 4th rotation ages the data out
	if got := w.Estimate(1); got != 0 {
		t.Fatalf("after 4 rotations estimate %v, want 0", got)
	}
	if w.LiveGenerations() != 4 {
		t.Fatalf("live = %d", w.LiveGenerations())
	}
}

func TestWindowedSpansTwoGenerations(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 18) })
	for i := 0; i < 1000; i++ {
		w.Observe(1, uint64(i))
	}
	w.Rotate()
	for i := 1000; i < 2000; i++ { // disjoint items in the new epoch
		w.Observe(1, uint64(i))
	}
	got := w.Estimate(1)
	if math.Abs(got-2000) > 150 {
		t.Fatalf("window estimate %v, want ~2000", got)
	}
	total := w.TotalDistinct()
	if math.Abs(total-2000) > 250 {
		t.Fatalf("window total %v, want ~2000", total)
	}
}

// TestWindowedOvercountShrinksWithGenerations is the headline accuracy claim
// of the k-generation refactor: on a stream that repeats the same pair set
// every period, a window targeting one period overcounts by the slop bound
// 1/(k−1) — ~2× total for the classic k=2 wrapper, ≤ ~4/3 for k=4 — because
// each pair is re-counted once per generation boundary it crosses.
func TestWindowedOvercountShrinksWithGenerations(t *testing.T) {
	const pairs = 1200 // |S|: one period = each of user 1's pairs once
	const periods = 4
	ratio := func(k int) float64 {
		w := NewWindowed(func() Estimator { return NewFreeRS(1<<20, WithSeed(7)) },
			WithGenerations(k))
		epochLen := pairs / (k - 1) // k−1 epochs span exactly one period
		fed := 0
		for p := 0; p < periods; p++ {
			for i := 0; i < pairs; i++ {
				w.Observe(1, uint64(i))
				fed++
				if fed%epochLen == 0 && fed < periods*pairs {
					w.Rotate() // explicit rotation; skip the last so the query
				} // sees k full generations (the worst instant)
			}
		}
		return w.Estimate(1) / pairs
	}
	r2, r4 := ratio(2), ratio(4)
	if r2 < 1.8 || r2 > 2.2 {
		t.Fatalf("k=2 overcount ratio %.3f, want ~2×", r2)
	}
	if r4 > 1.45 {
		t.Fatalf("k=4 overcount ratio %.3f, want ≤ ~4/3", r4)
	}
	if r4 >= r2 {
		t.Fatalf("overcount did not shrink with k: k=2 %.3f vs k=4 %.3f", r2, r4)
	}
}

// TestWindowedErrorShrinksWithGenerations is the property behind the
// k-generation design: against an exact sliding-window counter over the same
// trailing W edges, the windowed estimator's relative error is dominated by
// the 1/(k−1) slop (it covers between k−1 and k epochs of W/(k−1) edges), so
// doubling k must shrink the mean error. Sketch noise is kept negligible
// with a large array; the stream mixes fresh items with recent repeats so
// cross-generation double counting is exercised too.
func TestWindowedErrorShrinksWithGenerations(t *testing.T) {
	const W = 8400 // divisible by k−1 for k ∈ {2, 4, 8}
	const total = 5 * W
	meanErr := func(k int) float64 {
		w := NewWindowed(func() Estimator { return NewFreeRS(1<<20, WithSeed(4)) },
			WithGenerations(k), WithRotateEveryEdges(uint64(W/(k-1))))
		ex := exact.NewWindowTracker(W)
		rng := hashing.NewRNG(12)
		var recent []uint64
		sum, samples := 0.0, 0
		for i := 0; i < total; i++ {
			u := uint64(rng.Intn(500))
			var it uint64
			if len(recent) > 0 && rng.Intn(5) == 0 {
				it = recent[rng.Intn(len(recent))] // ~20% repeats of recent items
			} else {
				it = rng.Uint64()
				if len(recent) < 4096 {
					recent = append(recent, it)
				} else {
					recent[rng.Intn(len(recent))] = it
				}
			}
			w.Observe(u, it)
			ex.Observe(u, it)
			if i > 2*W && i%611 == 0 {
				truth := float64(ex.TotalCardinality())
				sum += math.Abs(w.TotalDistinct()-truth) / truth
				samples++
			}
		}
		return sum / float64(samples)
	}
	e2, e4, e8 := meanErr(2), meanErr(4), meanErr(8)
	t.Logf("mean relative error: k=2 %.3f, k=4 %.3f, k=8 %.3f", e2, e4, e8)
	if e2 < 0.15 {
		t.Fatalf("k=2 error %.3f suspiciously small: the test is not exercising window slop", e2)
	}
	if e4 >= e2 || e8 >= e4 {
		t.Fatalf("error must shrink as k grows: k=2 %.3f, k=4 %.3f, k=8 %.3f", e2, e4, e8)
	}
}

func TestWindowedRotateEveryEdges(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1<<16, WithSeed(2)) },
		WithRotateEveryEdges(10))
	plain := NewFreeRS(1<<16, WithSeed(2))
	// A 25-edge batch crosses the 10-edge boundary but is attributed wholly
	// to the epoch at call start: exactly one rotation fires, after it.
	batch := make([]Edge, 25)
	for i := range batch {
		batch[i] = Edge{User: 1, Item: uint64(i)}
	}
	w.ObserveBatch(batch)
	plain.ObserveBatch(batch)
	if w.Epoch() != 1 {
		t.Fatalf("epoch = %d, want exactly 1 rotation per feed", w.Epoch())
	}
	if w.Estimate(1) != plain.Estimate(1) {
		t.Fatal("batch split across generations: estimate no longer bit-identical to plain")
	}
	// One explicit rotation ages the whole batch out together (k=2).
	w.Rotate()
	if got := w.Estimate(1); got != 0 {
		t.Fatalf("estimate %v after aging, want 0: the batch was torn across generations", got)
	}
}

func TestWindowedRotateInterval(t *testing.T) {
	now := time.Unix(0, 0)
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 16) },
		WithRotateEvery(time.Minute), WithWindowClock(func() time.Time { return now }))
	w.Observe(1, 1)
	if w.Tick() {
		t.Fatal("rotated before the interval elapsed")
	}
	now = now.Add(time.Minute)
	if !w.Tick() {
		t.Fatal("timer tick past the interval must rotate")
	}
	now = now.Add(time.Minute)
	w.Observe(1, 2) // observation path also notices the elapsed interval
	if w.Epoch() != 2 {
		t.Fatalf("epoch = %d", w.Epoch())
	}
}

func TestWindowedUsersTopKSpreaders(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 20) }, WithGenerations(3))
	for i := 0; i < 5000; i++ {
		w.Observe(100, uint64(i)) // heavy in epoch 0
		w.Observe(7, uint64(i%5))
	}
	w.Rotate()
	for i := 0; i < 2000; i++ {
		w.Observe(200, uint64(i)|1<<40) // medium in epoch 1
		w.Observe(7, uint64(i%5))
	}
	if n := w.NumUsers(); n != 3 {
		t.Fatalf("NumUsers = %d, want 3", n)
	}
	sum := 0.0
	w.Users(func(u uint64, e float64) { sum += e })
	// The credit sum and the array-derived TotalDistinct are independent
	// estimators of the same quantity; they agree to a few percent here.
	if math.Abs(sum-w.TotalDistinct()) > 0.05*sum {
		t.Fatalf("Users sum %v far from TotalDistinct %v", sum, w.TotalDistinct())
	}
	top := TopK(w, 2)
	if len(top) != 2 || top[0].User != 100 || top[1].User != 200 {
		t.Fatalf("TopK = %+v, want users 100 then 200", top)
	}
	det := NewSpreaderDetector(w, 0.3)
	found := det.Detect()
	if len(found) != 1 || found[0].User != 100 {
		t.Fatalf("spreaders = %+v, want exactly user 100", found)
	}
	// After the heavy generation ages out, the detector follows the window.
	w.Rotate()
	w.Rotate()
	for _, s := range det.Detect() {
		if s.User == 100 {
			t.Fatal("aged-out spreader still flagged")
		}
	}
}

func TestWindowedCheckpointRoundTrip(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<16, WithSeed(11)) }
	w := NewWindowed(build, WithGenerations(3), WithRotateEveryEdges(4000))
	rng := hashing.NewRNG(5)
	for i := 0; i < 10000; i++ {
		w.Observe(uint64(rng.Intn(200)), rng.Uint64())
	}
	if w.Epoch() != 2 {
		t.Fatalf("setup: epoch = %d", w.Epoch())
	}
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewWindowed(build, WithGenerations(3), WithRotateEveryEdges(4000))
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != w.Epoch() || restored.LiveGenerations() != w.LiveGenerations() {
		t.Fatalf("bookkeeping: epoch %d/%d live %d/%d",
			restored.Epoch(), w.Epoch(), restored.LiveGenerations(), w.LiveGenerations())
	}
	// Bit-identical estimates, and bit-identical lockstep afterwards — the
	// restored instance rotates at the same edge counts as the original.
	check := func(stage string) {
		t.Helper()
		for u := uint64(0); u < 200; u++ {
			if got, want := restored.Estimate(u), w.Estimate(u); got != want {
				t.Fatalf("%s: user %d estimate %v != %v", stage, u, got, want)
			}
		}
		if restored.TotalDistinct() != w.TotalDistinct() || restored.Epoch() != w.Epoch() {
			t.Fatalf("%s: totals or epochs diverged", stage)
		}
	}
	check("restore")
	rngA, rngB := hashing.NewRNG(6), hashing.NewRNG(6)
	for i := 0; i < 9000; i++ {
		w.Observe(uint64(rngA.Intn(200)), rngA.Uint64())
		restored.Observe(uint64(rngB.Intn(200)), rngB.Uint64())
	}
	check("lockstep")

	// A k-mismatched receiver refuses the payload and keeps its state.
	other := NewWindowed(build, WithGenerations(4))
	other.Observe(1, 2)
	before := other.Estimate(1)
	if err := other.UnmarshalBinary(data); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("k mismatch accepted: %v", err)
	}
	if other.Estimate(1) != before || other.Epoch() != 0 {
		t.Fatal("failed restore mutated the receiver")
	}
	// Damaged payloads error without mutating.
	if err := restored.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	check("after rejected truncated payload")
}

func TestWindowedMergeClone(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<18, WithSeed(21)) }
	mk := func() *Windowed { return NewWindowed(build, WithGenerations(3)) }
	a, b, twin := mk(), mk(), mk()
	rng := hashing.NewRNG(1)
	// Two epochs; a and b see disjoint halves of the same per-epoch stream,
	// the twin sees everything. Rotations stay aligned.
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 4000; i++ {
			u, it := uint64(rng.Intn(100)), rng.Uint64()
			if i%2 == 0 {
				a.Observe(u, it)
			} else {
				b.Observe(u, it)
			}
			twin.Observe(u, it)
		}
		a.Rotate()
		b.Rotate()
		twin.Rotate()
	}
	clone := a.Clone()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// The FreeRS wrapper's TotalDistinct is array-derived, and per-epoch
	// array union is bit-identical to the twin's arrays.
	if got, want := a.TotalDistinct(), twin.TotalDistinct(); got != want {
		t.Fatalf("merged window total %v != twin %v (array union must be exact)", got, want)
	}
	// Per-user estimates are reconciled, not replayed: approximately right.
	for u := uint64(0); u < 100; u++ {
		got, want := a.Estimate(u), twin.Estimate(u)
		if want > 50 && math.Abs(got-want)/want > 0.35 {
			t.Fatalf("user %d merged estimate %v vs twin %v", u, got, want)
		}
	}
	// The clone was snapshotted before the merge and is unaffected by it.
	if clone.TotalDistinct() == a.TotalDistinct() {
		t.Fatal("clone shares state with the merged original")
	}
	if clone.Epoch() != 2 || clone.LiveGenerations() != a.LiveGenerations() {
		t.Fatal("clone lost epoch bookkeeping")
	}

	// Incompatibilities: epoch mismatch, k mismatch, non-mergeable underlying.
	c := mk()
	if err := a.Merge(c); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("epoch mismatch: %v", err)
	}
	d := NewWindowed(build, WithGenerations(2))
	if err := a.Merge(d); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("k mismatch: %v", err)
	}
	// A non-mergeable underlying estimator is refused at construction.
	mustPanic(t, func() { NewWindowed(func() Estimator { return NewCSE(1<<12, 64) }) })
	// Mismatched seeds surface the inner sketch's incompatibility, and the
	// receiver is untouched (merge-into-clones is atomic).
	f := NewWindowed(func() Estimator { return NewFreeRS(1<<18, WithSeed(99)) }, WithGenerations(3))
	f.Rotate()
	f.Rotate()
	beforeTotal := a.TotalDistinct()
	if err := a.Merge(f); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: %v", err)
	}
	if a.TotalDistinct() != beforeTotal {
		t.Fatal("failed merge mutated the receiver")
	}
}

func TestWindowedMemoryAndName(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeBS(4096) })
	if w.MemoryBits() != 4096 {
		t.Fatalf("one generation memory = %d", w.MemoryBits())
	}
	w.Rotate()
	if w.MemoryBits() != 8192 {
		t.Fatalf("two generation memory = %d", w.MemoryBits())
	}
	if !strings.Contains(w.Name(), "FreeBS") || !strings.Contains(w.Name(), "k=2") {
		t.Fatalf("name = %q", w.Name())
	}
}

func TestWindowedPanics(t *testing.T) {
	mustPanic(t, func() { NewWindowed(nil) })
	mustPanic(t, func() { NewWindowed(func() Estimator { return nil }) })
	mustPanic(t, func() {
		NewWindowed(func() Estimator { return NewFreeBS(64) }, WithGenerations(1))
	})
	calls := 0
	w := NewWindowed(func() Estimator {
		calls++
		if calls > 1 {
			return nil
		}
		return NewFreeBS(64)
	})
	mustPanic(t, w.Rotate)
	// A non-anytime underlying estimator is a usage error, caught at
	// construction.
	mustPanic(t, func() { NewWindowed(func() Estimator { return NewCSE(1<<12, 64) }) })
}

// TestWindowedViewRefusesMutation: a view is immutable. Every mutator
// panics with a message naming the view, on the estimates-only published
// view and on a full cut alike, and the view still answers as before; a
// mutated view would move its readers' and its fold cache's ring.
func TestWindowedViewRefusesMutation(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(3)) }
	w := NewWindowed(build, WithGenerations(3), WithRotateEvery(time.Nanosecond))
	w.ObserveBatch(randomBatch(hashing.NewRNG(4), 2000))
	ckpt, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := NewWindowed(build, WithGenerations(3))
	for name, v := range map[string]*Windowed{"view": w.Snapshot(), "full cut": w.fullSnapshot()} {
		epoch, total := v.Epoch(), v.TotalDistinct()
		for op, fn := range map[string]func(){
			"Observe":         func() { v.Observe(1, 2) },
			"ObserveBatch":    func() { v.ObserveBatch([]Edge{{User: 1, Item: 2}}) },
			"Rotate":          v.Rotate,
			"Tick":            func() { v.Tick() },
			"UnmarshalBinary": func() { v.UnmarshalBinary(ckpt) },
			"Merge":           func() { v.Merge(other) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, op+" on a read-only "+v.Name()+" snapshot view") {
						t.Errorf("%s: %s: want a panic naming the view, got %q", name, op, msg)
					}
				}()
				fn()
			}()
		}
		if v.Epoch() != epoch || v.TotalDistinct() != total {
			t.Fatalf("%s changed: epoch %d -> %d, total %v -> %v", name, epoch, v.Epoch(), total, v.TotalDistinct())
		}
	}
}

// TestWindowedRotateObserveRace is the -race regression test for the
// tentpole's guard: before the refactor nothing stopped a timer goroutine
// from calling Rotate mid-ObserveBatch. Batches, single observes, rotations,
// ticks, and every query path hammer one instance concurrently.
func TestWindowedRotateObserveRace(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1<<14, WithSeed(3)) },
		WithGenerations(3), WithRotateEveryEdges(2000))
	var wg sync.WaitGroup
	for id := 0; id < 6; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := hashing.NewRNG(uint64(id) + 1)
			batch := make([]Edge, 0, 64)
			for i := 0; i < 3000; i++ {
				u := uint64(rng.Intn(300) + 1)
				switch i % 4 {
				case 0:
					w.Observe(u, rng.Uint64())
				case 1:
					batch = batch[:0]
					for k := 0; k < 32; k++ {
						batch = append(batch, Edge{User: u, Item: rng.Uint64()})
					}
					w.ObserveBatch(batch)
				case 2:
					_ = w.Estimate(u)
					_ = w.TotalDistinct()
				default:
					if i%29 == 0 {
						_ = w.NumUsers()
					}
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			w.Rotate()
			w.Tick()
		}
	}()
	wg.Wait()
	<-done
	if w.Epoch() < 200 {
		t.Fatalf("epoch = %d", w.Epoch())
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
