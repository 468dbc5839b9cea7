package streamcard

import (
	"errors"
	"math"
	"slices"
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
	// A FreeBS window at the same k and epoch is refused generation by
	// generation, and the receiver is untouched.
	bs := NewWindowed(func() Estimator { return NewFreeBS(1<<18, WithSeed(21)) }, WithGenerations(3))
	bs.Observe(1, 2)
	bs.Rotate()
	bs.Rotate()
	if err := a.Merge(bs); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("FreeBS window into a FreeRS window: %v", err)
	}
	if a.TotalDistinct() != beforeTotal {
		t.Fatal("failed FreeBS-into-FreeRS merge mutated the receiver")
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
	// So is a window of windows, although a Windowed is a stack layer too.
	mustPanic(t, func() {
		NewWindowed(func() Estimator {
			return NewWindowed(func() Estimator { return NewFreeBS(64) })
		})
	})
}

// TestWindowedViewRefusesMutation: a view is immutable. Every mutator
// panics with a message naming the view, on the estimates-only published
// view and on a full cut alike, and the view still answers as before; a
// mutated view would move its readers' ring.
func TestWindowedViewRefusesMutation(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(3)) }
	w := NewWindowed(build, WithGenerations(3), WithRotateEveryEdges(1))
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

// TestWindowedMarshalBinaryWhileObserving: MarshalBinary on a live window
// is safe against a concurrent writer (run under -race), and every
// checkpoint it returns restores.
func TestWindowedMarshalBinaryWhileObserving(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(5)) }
	w := NewWindowed(build, WithGenerations(3))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := hashing.NewRNG(1)
		for i := 0; i < 200; i++ {
			w.ObserveBatch(randomBatch(rng, 64))
		}
	}()
	for i := 0; i < 200; i++ {
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := NewWindowed(build, WithGenerations(3)).UnmarshalBinary(data); err != nil {
			t.Fatalf("checkpoint %d does not restore: %v", i, err)
		}
	}
	<-done
}

// TestWindowedCloneWhileObserving: Clone on a live window is safe against
// a concurrent writer (run under -race), and each clone is a consistent
// prefix: with no rotation, the array-derived total never falls.
func TestWindowedCloneWhileObserving(t *testing.T) {
	w := NewWindowed(func() Estimator { return NewFreeRS(1<<14, WithSeed(5)) }, WithGenerations(3))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := hashing.NewRNG(2)
		for i := 0; i < 200; i++ {
			w.ObserveBatch(randomBatch(rng, 64))
		}
	}()
	last := 0.0
	for i := 0; i < 200; i++ {
		total := w.Clone().TotalDistinct()
		if total < last {
			t.Fatalf("clone %d total %v fell below an earlier clone's %v", i, total, last)
		}
		last = total
	}
	<-done
}

// TestWindowedMutatorsInvalidateView: every mutator clears the cached view,
// so the Snapshot after it is a new view that reads like a fresh Clone,
// while repeated Snapshots with no write between them share one view.
func TestWindowedMutatorsInvalidateView(t *testing.T) {
	build := func() Estimator { return NewFreeRS(1<<14, WithSeed(8)) }
	src := NewWindowed(build, WithGenerations(3))
	src.ObserveBatch(randomBatch(hashing.NewRNG(3), 500))
	src.Rotate()
	src.ObserveBatch(randomBatch(hashing.NewRNG(4), 500))
	ckpt, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	peer := NewWindowed(build, WithGenerations(3))
	peer.ObserveBatch(randomBatch(hashing.NewRNG(5), 500))

	for op, mutate := range map[string]func(w *Windowed) error{
		"Observe":           func(w *Windowed) error { w.Observe(1, 99); return nil },
		"ObserveBatch":      func(w *Windowed) error { w.ObserveBatch(randomBatch(hashing.NewRNG(6), 100)); return nil },
		"Rotate":            func(w *Windowed) error { w.Rotate(); return nil },
		"boundary rotation": func(w *Windowed) error { w.ObserveBatch(randomBatch(hashing.NewRNG(7), 500)); return nil },
		"Merge":             func(w *Windowed) error { return w.Merge(peer) },
		"UnmarshalBinary":   func(w *Windowed) error { return w.UnmarshalBinary(ckpt) },
	} {
		t.Run(op, func(t *testing.T) {
			w := NewWindowed(build, WithGenerations(3), WithRotateEveryEdges(1000))
			w.ObserveBatch(randomBatch(hashing.NewRNG(2), 600))
			before := w.Snapshot()
			if w.Snapshot() != before {
				t.Fatal("two Snapshots with no write between them returned different views")
			}
			epoch := w.Epoch()
			if err := mutate(w); err != nil {
				t.Fatal(err)
			}
			if op == "boundary rotation" && w.Epoch() != epoch+1 {
				t.Fatalf("epoch %d after crossing the boundary, want %d", w.Epoch(), epoch+1)
			}
			after := w.Snapshot()
			if after == before {
				t.Fatalf("Snapshot after %s returned the cached view", op)
			}
			clone := w.Clone()
			if after.Epoch() != clone.Epoch() || after.TotalDistinct() != clone.TotalDistinct() ||
				after.NumUsers() != clone.NumUsers() {
				t.Fatalf("view after %s reads epoch %d total %v users %d, a clone epoch %d total %v users %d",
					op, after.Epoch(), after.TotalDistinct(), after.NumUsers(),
					clone.Epoch(), clone.TotalDistinct(), clone.NumUsers())
			}
			for _, ue := range usersOf(clone) {
				if got := after.Estimate(ue.user); got != ue.est {
					t.Fatalf("view after %s estimates user %d at %v, a clone at %v", op, ue.user, got, ue.est)
				}
			}
		})
	}
}

// ringWindow is the k-generation FreeRS window the ring tests run on.
func ringWindow(k int, opts ...WindowedOption) *Windowed {
	return NewWindowed(func() Estimator { return NewFreeRS(1<<20, WithSeed(9)) },
		append([]WindowedOption{WithGenerations(k)}, opts...)...)
}

// feedUsers feeds one batch of n edges from users first, first+1, ...: a
// user per edge, so a generation's NumUsers counts the edges it absorbed.
func feedUsers(w *Windowed, first uint64, n int) {
	batch := make([]Edge, n)
	for i := range batch {
		batch[i] = Edge{User: first + uint64(i), Item: 1}
	}
	w.ObserveBatch(batch)
}

// liveUsers returns each live generation's user count, newest first.
func liveUsers(w *Windowed) []int {
	var out []int
	for _, g := range w.Snapshot().gens {
		out = append(out, g.(AnytimeEstimator).NumUsers())
	}
	return out
}

func TestRingGrowsToKThenDrops(t *testing.T) {
	w := ringWindow(3)
	if w.Generations() != 3 || w.LiveGenerations() != 1 || w.Epoch() != 0 {
		t.Fatalf("fresh window k=%d live=%d epoch=%d", w.Generations(), w.LiveGenerations(), w.Epoch())
	}
	feedUsers(w, 0, 10)
	w.Rotate()
	feedUsers(w, 100, 20)
	w.Rotate()
	feedUsers(w, 200, 30)
	if got := liveUsers(w); !slices.Equal(got, []int{30, 20, 10}) {
		t.Fatalf("live = %v, want [30 20 10]", got)
	}
	w.Rotate() // the 10-edge generation ages out
	if got := liveUsers(w); !slices.Equal(got, []int{0, 30, 20}) {
		t.Fatalf("live after overflow = %v, want [0 30 20]", got)
	}
	if w.Epoch() != 3 {
		t.Fatalf("epoch = %d", w.Epoch())
	}
}

func TestRingByEdgesBoundary(t *testing.T) {
	w := ringWindow(2, WithRotateEveryEdges(10))
	feedUsers(w, 0, 9)
	if w.Epoch() != 0 {
		t.Fatal("rotated early")
	}
	feedUsers(w, 100, 1)
	if w.Epoch() != 1 || w.Snapshot().edges != 0 {
		t.Fatalf("epoch=%d edges=%d after hitting the boundary", w.Epoch(), w.Snapshot().edges)
	}
	// A batch far past the boundary still rotates at most once, and all its
	// edges belong to the generation current at call start.
	feedUsers(w, 200, 35)
	if w.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (one rotation per feed)", w.Epoch())
	}
	if got := liveUsers(w); !slices.Equal(got, []int{0, 35}) {
		t.Fatalf("live = %v, want the whole batch in one generation", got)
	}
}

func TestRingManualNeverRotates(t *testing.T) {
	w := ringWindow(2)
	feedUsers(w, 0, 100_000)
	if w.Epoch() != 0 || w.LiveGenerations() != 1 {
		t.Fatal("a window without WithRotateEveryEdges rotated on its own")
	}
}

func TestRingSnapshotAndAdopt(t *testing.T) {
	w := ringWindow(3)
	feedUsers(w, 0, 7)
	w.Rotate()
	feedUsers(w, 100, 8)
	// The state copy freezes the generations and the epoch bookkeeping:
	// rotating afterwards must not alter it.
	cut := w.fullSnapshot()
	w.Rotate()
	if got := liveUsers(cut); cut.Epoch() != 1 || cut.edges != 8 || !slices.Equal(got, []int{8, 7}) {
		t.Fatalf("cut live=%v epoch=%d edges=%d, want [8 7] 1 8", got, cut.Epoch(), cut.edges)
	}

	data, err := cut.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := ringWindow(3)
	if err := fresh.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got := liveUsers(fresh); fresh.Epoch() != 1 || fresh.Snapshot().edges != 8 || !slices.Equal(got, []int{8, 7}) {
		t.Fatalf("restored live=%v epoch=%d edges=%d, want [8 7] 1 8", got, fresh.Epoch(), fresh.Snapshot().edges)
	}

	// A k mismatch is refused without touching the window.
	other := ringWindow(2)
	feedUsers(other, 0, 5)
	if err := other.UnmarshalBinary(data); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("k mismatch: %v", err)
	}
	if got := liveUsers(other); other.Epoch() != 0 || !slices.Equal(got, []int{5}) {
		t.Fatalf("refused restore left live=%v epoch=%d, want [5] 0", got, other.Epoch())
	}
}

// TestSealedRingReadsWithoutLock: a view, estimates-only or full cut,
// answers every read while the live window's lock and its own are held, so
// its readers never wait on the writer or on each other, and it refuses
// every mutation.
func TestSealedRingReadsWithoutLock(t *testing.T) {
	w := ringWindow(3)
	feedUsers(w, 0, 7)
	w.Rotate()
	feedUsers(w, 100, 8)
	ckpt, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*Windowed{"view": w.Snapshot(), "full cut": w.fullSnapshot()} {
		w.mu.Lock()
		v.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			v.Snapshot()
			v.Estimate(100)
			v.TotalDistinct()
			v.Users(func(uint64, float64) {})
			v.RangeUsers(func(uint64, float64) {})
			v.NumUsers()
			v.UserEntries()
			v.MemoryBits()
			v.Epoch()
			v.LiveGenerations()
			TopK(v, 3)
			if name == "full cut" {
				v.Clone()
				v.MarshalBinary()
			}
		}()
		select {
		case <-done:
			v.mu.Unlock()
			w.mu.Unlock()
		case <-time.After(time.Second):
			v.mu.Unlock()
			w.mu.Unlock()
			t.Fatalf("%s: a read waited on a window lock", name)
		}

		mustPanic(t, func() { feedUsers(v, 0, 1) })
		mustPanic(t, v.Rotate)
		mustPanic(t, func() { v.UnmarshalBinary(ckpt) })
		mustPanic(t, func() { v.Merge(ringWindow(3)) })
		if got := liveUsers(v); v.Epoch() != 1 || v.edges != 8 || !slices.Equal(got, []int{8, 7}) {
			t.Fatalf("%s reads live %v epoch %d edges %d, want [8 7] 1 8", name, got, v.Epoch(), v.edges)
		}
	}
}

func TestRingPanics(t *testing.T) {
	mustPanic(t, func() { ringWindow(1) })
	mustPanic(t, func() { NewWindowed(nil, WithGenerations(2)) })
	calls := 0
	w := NewWindowed(func() Estimator {
		calls++
		if calls > 1 {
			return nil
		}
		return NewFreeRS(1 << 10)
	})
	mustPanic(t, w.Rotate)
	// The failed rotation left the window as it was, and unlocked.
	w.Observe(1, 2)
	if w.Epoch() != 0 || w.LiveGenerations() != 1 || w.Estimate(1) == 0 {
		t.Fatalf("after a failed rotation: epoch %d live %d estimate %v", w.Epoch(), w.LiveGenerations(), w.Estimate(1))
	}
}

// TestRingFeedRotateRace is the -race guard for the window lock: batches,
// rotations (explicit and at an edge boundary) and view reads interleave
// from many goroutines. Each batch is one fresh user's, so a batch torn
// across generations would leave its user live in two of them.
func TestRingFeedRotateRace(t *testing.T) {
	w := ringWindow(4, WithRotateEveryEdges(500))
	const workers, perWorker, batch = 8, 300, 7
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			edges := make([]Edge, batch)
			for i := 0; i < perWorker; i++ {
				u := uint64(id)<<32 | uint64(i)
				for j := range edges {
					edges[j] = Edge{User: u, Item: uint64(j)}
				}
				w.ObserveBatch(edges)
				if i%97 == 0 {
					_ = w.NumUsers()
					_ = w.Estimate(u)
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			w.Rotate()
		}
	}()
	wg.Wait()
	<-done
	if w.Epoch() < 50 {
		t.Fatalf("epoch = %d, want >= 50 explicit rotations", w.Epoch())
	}
	seen := map[uint64]int{}
	for gi, g := range w.Snapshot().gens {
		g.(AnytimeEstimator).Users(func(u uint64, _ float64) {
			if prev, ok := seen[u]; ok {
				t.Fatalf("user %d live in generations %d and %d: a batch was torn", u, prev, gi)
			}
			seen[u] = gi
		})
	}
}
