package streamcard

// Tests for the snapshot-isolated read path: frozen-view semantics,
// published-view reuse, and the rotation torture test — queries hammering
// a sharded windowed stack concurrently with ingestion and epoch rotation
// must always observe ONE consistent epoch, never a torn pre/post-rotation
// mix. Run with -race in CI: the same test then doubles as the data-race
// detector for the whole copy-on-write publication machinery.

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hashing"
)

// tortureStack builds the serving shape: sharded windowed FreeRS with a
// shared seed, so the merged union total is available from views.
func tortureStack(shards, gens int) *Sharded {
	return NewSharded(shards, func(int) Estimator {
		return NewWindowed(func() Estimator {
			return NewFreeRS(1<<16, WithSeed(7))
		}, WithGenerations(gens))
	})
}

func randomBatch(rng *hashing.RNG, n int) []Edge {
	edges := make([]Edge, 0, n)
	for len(edges) < n {
		u := uint64(rng.Intn(4000) + 1)
		run := rng.Intn(6) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: rng.Uint64()})
		}
	}
	return edges
}

// TestSnapshotTortureConsistentEpoch: /estimate-, /topk-, and /total-shaped
// queries racing with ObserveBatch and Rotate. Every view a querier obtains
// must freeze exactly one epoch across all shards (and epochs must be
// monotone per querier); the merged union total must always be computable
// from a view (lockstep rotations can never make it ErrIncompatible).
func TestSnapshotTortureConsistentEpoch(t *testing.T) {
	const (
		shards    = 4
		gens      = 3
		ingesters = 3
		queriers  = 6
		batches   = 150
		rotations = 80
	)
	s := tortureStack(shards, gens)

	var writers sync.WaitGroup
	var done atomic.Bool
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	for w := 0; w < ingesters; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := hashing.NewRNG(seed)
			for i := 0; i < batches; i++ {
				s.ObserveBatch(randomBatch(rng, 256))
				s.Observe(uint64(rng.Intn(4000)+1), rng.Uint64())
			}
		}(uint64(w + 1))
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < rotations; i++ {
			s.Rotate()
		}
	}()

	var readers sync.WaitGroup
	for q := 0; q < queriers; q++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := hashing.NewRNG(seed)
			lastEpoch := -1
			for !done.Load() && !failed.Load() {
				v := s.Snapshot()
				if v == nil {
					fail("Snapshot returned nil for a snapshottable stack")
					return
				}
				// The single-consistent-epoch invariant, checked shard by
				// shard.
				epoch := v.Epoch()
				for i := 0; i < v.NumShards(); i++ {
					w, ok := v.ShardView(i).(*Windowed)
					if !ok {
						fail("shard view %d is not *Windowed", i)
						return
					}
					if w.Epoch() != epoch {
						fail("torn view: shard %d at epoch %d, view epoch %d", i, w.Epoch(), epoch)
						return
					}
				}
				if epoch < lastEpoch {
					fail("epoch went backwards: %d after %d", epoch, lastEpoch)
					return
				}
				lastEpoch = epoch

				// The query mix, all on the frozen view.
				_ = v.Estimate(uint64(rng.Intn(4000) + 1))
				_ = v.TotalDistinct()
				switch rng.Intn(8) {
				case 0:
					if top := TopK(v, 5); len(top) > 1 && top[0].Estimate < top[1].Estimate {
						fail("TopK not descending on a view")
						return
					}
				case 1:
					if _, err := v.TotalDistinctMerged(); err != nil {
						fail("merged total on a consistent lockstep view: %v", err)
						return
					}
				case 2:
					_ = v.NumUsers()
				}
			}
		}(uint64(100 + q))
	}

	writers.Wait()
	done.Store(true)
	readers.Wait()
	if failed.Load() {
		t.FailNow()
	}

	// Post-conditions: the machinery still works after the storm. (The
	// rotator may have fired its last rotations after ingest ended, so the
	// live window can be empty — ingest once more and the view must show
	// it.)
	if got := s.Snapshot().Epoch(); got != rotations {
		t.Fatalf("final epoch %d, want %d", got, rotations)
	}
	rng := hashing.NewRNG(99)
	s.ObserveBatch(randomBatch(rng, 512))
	v := s.Snapshot()
	if v.NumUsers() == 0 || v.TotalDistinct() <= 0 {
		t.Fatal("final view lost the ingested data")
	}
}

// TestShardedSnapshotFrozen: a view is a frozen cut — later ingestion never
// shows through it — and a fresh Snapshot after a completed write always
// reflects that write (read-your-writes).
func TestShardedSnapshotFrozen(t *testing.T) {
	s := tortureStack(3, 2)
	rng := hashing.NewRNG(1)
	s.ObserveBatch(randomBatch(rng, 4096))

	v1 := s.Snapshot()
	users1 := v1.NumUsers()
	total1 := v1.TotalDistinct()
	est1 := v1.Estimate(42)

	// New users from a disjoint range; the frozen view must not move.
	fresh := make([]Edge, 0, 4096)
	for i := 0; i < 4096; i++ {
		fresh = append(fresh, Edge{User: uint64(100000 + i/4), Item: rng.Uint64()})
	}
	s.ObserveBatch(fresh)

	if v1.NumUsers() != users1 || v1.TotalDistinct() != total1 || v1.Estimate(42) != est1 {
		t.Fatal("ingestion after the snapshot leaked into the frozen view")
	}
	v2 := s.Snapshot()
	if v2 == v1 {
		t.Fatal("Snapshot after a write returned the stale published view")
	}
	if v2.NumUsers() <= users1 {
		t.Fatalf("read-your-writes violated: %d users before, %d after ingesting new users",
			users1, v2.NumUsers())
	}
	// Rotation isolation: rotating k=2 twice discards all pre-rotation
	// generations from fresh views; the old view keeps serving its epoch.
	// Its analytics reads fold again on every call, from the generations
	// it froze, so they must not move when the live stack retires them.
	sortedUsers := func() []Spreader {
		var out []Spreader
		v2.Users(func(u uint64, e float64) { out = append(out, Spreader{User: u, Estimate: e}) })
		return out
	}
	top2, n2, sorted2 := v2.TopK(20), v2.NumUsers(), sortedUsers()
	s.Rotate()
	s.Rotate()
	if v2.NumUsers() <= users1 {
		t.Fatal("rotation destroyed a frozen view")
	}
	if got := s.Snapshot().Epoch(); got != 2 {
		t.Fatalf("fresh view at epoch %d, want 2", got)
	}
	if got := v2.TopK(20); !reflect.DeepEqual(got, top2) {
		t.Fatalf("frozen view's top-k moved across rotations:\ngot  %v\nwant %v", got, top2)
	}
	if got := v2.NumUsers(); got != n2 {
		t.Fatalf("frozen view's user count moved across rotations: %d, want %d", got, n2)
	}
	if got := sortedUsers(); !reflect.DeepEqual(got, sorted2) {
		t.Fatal("frozen view's sorted Users sequence moved across rotations")
	}
}

// TestShardedSnapshotPublished: while nothing is written, Snapshot returns
// the SAME published view, and the merged total read through a view equals
// the one Sharded.TotalDistinctMerged computes.
func TestShardedSnapshotPublished(t *testing.T) {
	s := tortureStack(4, 3)
	rng := hashing.NewRNG(2)
	s.ObserveBatch(randomBatch(rng, 8192))

	v1 := s.Snapshot()
	m1, err := v1.TotalDistinctMerged()
	if err != nil {
		t.Fatal(err)
	}
	v2 := s.Snapshot()
	if v2 != v1 {
		t.Fatal("Snapshot rebuilt the view although nothing was written")
	}
	m2, err := v2.TotalDistinctMerged()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("cached merged total drifted: %v != %v", m1, m2)
	}
	// The facade routes through the same view, so it must agree bit for bit.
	m3, err := s.TotalDistinctMerged()
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatalf("Sharded.TotalDistinctMerged %v != view's %v", m3, m1)
	}
	// A write invalidates by publication: the next view is a new object.
	s.Observe(1, 1)
	if s.Snapshot() == v1 {
		t.Fatal("write did not publish a fresh view")
	}
}

// TestShardedSnapshotDistinctSeeds: with the customary distinct per-shard
// seeds the merged total stays ErrIncompatible — served from the view, the
// error contract is unchanged.
func TestShardedSnapshotDistinctSeeds(t *testing.T) {
	s := NewSharded(3, func(i int) Estimator {
		return NewFreeRS(1<<14, WithSeed(uint64(i)+1))
	})
	s.Observe(1, 2)
	if _, err := s.TotalDistinctMerged(); !errors.Is(err, ErrIncompatible) {
		t.Fatal("distinct-seed shards must stay unmergeable through the snapshot path")
	}
	if v := s.Snapshot(); v == nil {
		t.Fatal("plain FreeRS shards must be snapshottable")
	} else if v.Estimate(1) <= 0 {
		t.Fatal("view lost the observation")
	}
}

// TestShardedSnapshotDriftingEpochs: windows rotating themselves on
// per-shard boundaries would leave the stack with no common epoch to
// freeze, so NewSharded refuses Windowed shards built with an automatic
// rotation boundary: Sharded.Rotate alone advances a Sharded's windows.
func TestShardedSnapshotDriftingEpochs(t *testing.T) {
	t.Run("edges", func(t *testing.T) {
		mustPanic(t, func() {
			NewSharded(3, func(int) Estimator {
				return NewWindowed(func() Estimator {
					return NewFreeRS(1<<14, WithSeed(7))
				}, WithGenerations(2), WithRotateEveryEdges(500))
			})
		})
	})
}

// TestUnsnapshottableFallback: estimators without snapshot support have no
// place in the snapshot-only read path, so the constructors refuse them —
// NewSharded over CSE or vHLL shards, NewWindowed over CSE or vHLL
// generations — instead of serving them through a locked fallback.
func TestUnsnapshottableFallback(t *testing.T) {
	for name, build := range map[string]func() Estimator{
		"CSE":  func() Estimator { return NewCSE(1<<14, 256) },
		"vHLL": func() Estimator { return NewVHLL(1<<14, 256) },
	} {
		t.Run(name, func(t *testing.T) {
			mustPanic(t, func() { NewSharded(2, func(int) Estimator { return build() }) })
			mustPanic(t, func() { NewWindowed(build) })
		})
	}
}
