package streamcard

// Public-surface merge tests: the wrapper Merge/Clone methods and the
// sharded merged-total aggregation. The deep property testing (bit-for-bit
// array equality against a union sketch across sizes and seeds) lives in
// internal/core; here the concern is the API contract — compatibility
// errors surface, clones are independent, and TotalDistinctMerged combines
// same-seed shards while rejecting the distinct-seed default.

import (
	"errors"
	"math"
	"testing"
)

func TestPublicMergeFreeBS(t *testing.T) {
	a := NewFreeBS(1<<14, WithSeed(9))
	b := NewFreeBS(1<<14, WithSeed(9))
	ea := burstStream(6000, 31)
	eb := burstStream(6000, 32)
	a.ObserveBatch(ea)
	b.ObserveBatch(eb)

	union := NewFreeBS(1<<14, WithSeed(9))
	union.ObserveBatch(ea)
	union.ObserveBatch(eb)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// TotalDistinct is array-derived on the wrapper, and the merged array is
	// bit-identical to the union sketch's: the totals must match exactly.
	if got, want := a.TotalDistinct(), union.TotalDistinct(); got != want {
		t.Fatalf("merged TotalDistinct %v != union %v", got, want)
	}
	if a.NumUsers() != union.NumUsers() {
		t.Fatalf("merged NumUsers %d != union %d", a.NumUsers(), union.NumUsers())
	}

	// Incompatible partners are rejected.
	if err := a.Merge(NewFreeBS(1<<14, WithSeed(10))); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: want ErrIncompatible, got %v", err)
	}
	if err := a.Merge(NewFreeBS(1<<13, WithSeed(9))); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("size mismatch: want ErrIncompatible, got %v", err)
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge accepted")
	}
}

func TestPublicMergeFreeRS(t *testing.T) {
	a := NewFreeRS(1<<14, WithSeed(9))
	b := NewFreeRS(1<<14, WithSeed(9))
	ea := burstStream(6000, 41)
	eb := burstStream(6000, 42)
	a.ObserveBatch(ea)
	b.ObserveBatch(eb)

	union := NewFreeRS(1<<14, WithSeed(9))
	union.ObserveBatch(ea)
	union.ObserveBatch(eb)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.TotalDistinct(), union.TotalDistinct(); got != want {
		t.Fatalf("merged TotalDistinct %v != union %v", got, want)
	}
	if err := a.Merge(NewFreeRS(1<<14, WithSeed(10))); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: want ErrIncompatible, got %v", err)
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge accepted")
	}
}

func TestPublicClone(t *testing.T) {
	f := NewFreeRS(1<<12, WithSeed(2))
	f.ObserveBatch(burstStream(2000, 8))
	c := f.Clone()
	if c.TotalDistinct() != f.TotalDistinct() {
		t.Fatal("clone total differs")
	}
	c.Observe(1<<40, 1)
	if f.Estimate(1<<40) != 0 {
		t.Fatal("clone shares state with original")
	}
}

// TestShardedTotalDistinctMerged: shards built with a SHARED seed merge into
// one union sketch whose array-derived total is close to the truth, while
// the customary distinct-seed construction is rejected with ErrIncompatible.
func TestShardedTotalDistinctMerged(t *testing.T) {
	for _, kind := range []string{"FreeBS", "FreeRS"} {
		t.Run(kind, func(t *testing.T) {
			build := func(seed uint64) func(int) Estimator {
				return func(int) Estimator {
					if kind == "FreeBS" {
						return NewFreeBS(1<<16, WithSeed(seed))
					}
					return NewFreeRS(1<<16, WithSeed(seed))
				}
			}
			s := NewSharded(4, func(i int) Estimator { return build(77)(i) })
			// Known ground truth: users 1..50 with 200 distinct items each.
			const users, perUser = 50, 200
			for u := uint64(1); u <= users; u++ {
				for d := 0; d < perUser; d++ {
					s.Observe(u, uint64(d))
				}
			}
			merged, err := s.TotalDistinctMerged()
			if err != nil {
				t.Fatal(err)
			}
			truth := float64(users * perUser)
			if rel := math.Abs(merged-truth) / truth; rel > 0.05 {
				t.Fatalf("merged total %v vs truth %v (rel %v)", merged, truth, rel)
			}
			// The summed reading must also be sane, and merging must not
			// have mutated the live shards.
			if rel := math.Abs(s.TotalDistinct()-truth) / truth; rel > 0.10 {
				t.Fatalf("summed total drifted after merge: %v vs %v", s.TotalDistinct(), truth)
			}

			distinct := NewSharded(4, func(i int) Estimator { return build(uint64(i) + 1)(i) })
			distinct.Observe(1, 2)
			if _, err := distinct.TotalDistinctMerged(); !errors.Is(err, ErrIncompatible) {
				t.Fatalf("distinct-seed shards: want ErrIncompatible, got %v", err)
			}
		})
	}

	// Non-mergeable shard types are refused at construction.
	mustPanic(t, func() { NewSharded(2, func(i int) Estimator { return NewCSE(1<<12, 64, WithSeed(1)) }) })
}
