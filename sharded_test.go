package streamcard

import (
	"math"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/hashing"
)

func newShardedFreeRS(n int) *Sharded {
	return NewSharded(n, func(i int) Estimator {
		return NewFreeRS(1<<20, WithSeed(uint64(i)+1))
	})
}

func TestShardedBasicAccuracy(t *testing.T) {
	s := newShardedFreeRS(4)
	truth := exact.NewTracker()
	rng := hashing.NewRNG(5)
	for i := 0; i < 50000; i++ {
		u, d := uint64(rng.Intn(200)), rng.Uint64()%3000
		s.Observe(u, d)
		truth.Observe(u, d)
	}
	bad := 0
	truth.Users(func(u uint64, card int) {
		if card < 50 {
			return
		}
		if math.Abs(s.Estimate(u)-float64(card)) > 0.3*float64(card) {
			bad++
		}
	})
	if bad > 3 {
		t.Fatalf("%d users badly estimated", bad)
	}
	total := s.TotalDistinct()
	want := float64(truth.TotalCardinality())
	if math.Abs(total-want) > 0.1*want {
		t.Fatalf("total %v, truth %v", total, want)
	}
}

func TestShardedConcurrentUse(t *testing.T) {
	// Hammer the wrapper from many goroutines; run under -race this test
	// proves the locking discipline. Each goroutine owns a user-ID range so
	// the final estimates are deterministic facts we can check.
	s := newShardedFreeRS(8)
	const (
		workers = 16
		perUser = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := uint64(w + 1)
			for i := 0; i < perUser; i++ {
				s.Observe(user, uint64(i)|user<<32)
				if i%100 == 0 {
					_ = s.Estimate(user)
					_ = s.TotalDistinct()
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		got := s.Estimate(uint64(w + 1))
		if math.Abs(got-perUser) > 0.25*perUser {
			t.Fatalf("user %d estimate %v, want ~%d", w+1, got, perUser)
		}
	}
}

func TestShardedSameUserSameShard(t *testing.T) {
	// All edges of one user must reach a single underlying estimator:
	// feeding a user through the wrapper equals feeding one shard directly.
	s := newShardedFreeRS(8)
	for i := 0; i < 2000; i++ {
		s.Observe(42, uint64(i))
	}
	nonZero := 0
	for i := range s.shards {
		if s.shards[i].est.Estimate(42) > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("user 42 landed in %d shards, want exactly 1", nonZero)
	}
}

func TestShardedAccessors(t *testing.T) {
	s := newShardedFreeRS(3)
	if s.NumShards() != 3 {
		t.Fatalf("shards = %d", s.NumShards())
	}
	if s.Name() != "Sharded(FreeRS,3)" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.MemoryBits() != 3*(1<<20)/5*5 {
		t.Fatalf("memory = %d", s.MemoryBits())
	}
}

func TestShardedPanics(t *testing.T) {
	mustPanic(t, func() { NewSharded(0, func(int) Estimator { return NewFreeBS(64) }) })
	mustPanic(t, func() { NewSharded(2, nil) })
	mustPanic(t, func() { NewSharded(2, func(int) Estimator { return nil }) })
	// One concrete shard type per stack: in a mixed stack Rotate would
	// advance the Windowed shards and then fail on the rest, tearing the
	// stack across two epochs.
	mustPanic(t, func() {
		NewSharded(2, func(i int) Estimator {
			if i == 0 {
				return NewWindowed(func() Estimator { return NewFreeRS(1 << 12) })
			}
			return NewFreeRS(1 << 12)
		})
	})
	// Shards are sketches or windows of them, never a Sharded stack.
	mustPanic(t, func() {
		NewSharded(2, func(int) Estimator {
			return NewSharded(2, func(int) Estimator { return NewFreeRS(1 << 12) })
		})
	})
}
