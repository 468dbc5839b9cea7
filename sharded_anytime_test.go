package streamcard

// Tests for the AnytimeEstimator fan-out on Sharded (Users/NumUsers and
// therefore TopK) and for merged totals over Windowed shards — the surfaces
// the cardinality service queries on a sharded deployment.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hashing"
	"repro/internal/stream"
)

func randomEdges(seed uint64, n, users, items int) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{User: uint64(rng.Intn(users)), Item: rng.Uint64() % uint64(items)}
	}
	return edges
}

// TestShardedUsersMatchesUnshardedTwin pins the determinism contract: a
// one-shard Sharded is byte-for-byte the wrapped estimator, so Users,
// NumUsers, and TopK must be bit-identical to an unsharded twin fed the
// same stream with the same seed.
func TestShardedUsersMatchesUnshardedTwin(t *testing.T) {
	edges := randomEdges(11, 30000, 300, 5000)
	twin := NewFreeRS(1<<20, WithSeed(7))
	s := NewSharded(1, func(int) Estimator { return NewFreeRS(1<<20, WithSeed(7)) })
	twin.ObserveBatch(edges)
	s.ObserveBatch(edges)

	if s.NumUsers() != twin.NumUsers() {
		t.Fatalf("NumUsers %d vs twin %d", s.NumUsers(), twin.NumUsers())
	}
	want := make(map[uint64]float64)
	twin.Users(func(u uint64, e float64) { want[u] = e })
	seen := 0
	s.Users(func(u uint64, e float64) {
		seen++
		if want[u] != e {
			t.Fatalf("user %d: sharded estimate %v, twin %v", u, e, want[u])
		}
	})
	if seen != len(want) {
		t.Fatalf("enumerated %d users, twin has %d", seen, len(want))
	}
	st, tt := TopK(s, 10), TopK(twin, 10)
	if len(st) != len(tt) {
		t.Fatalf("TopK lengths %d vs %d", len(st), len(tt))
	}
	for i := range st {
		if st[i] != tt[i] {
			t.Fatalf("TopK[%d] %+v vs twin %+v", i, st[i], tt[i])
		}
	}
}

// TestShardedUsersPartition checks the multi-shard union: every observed
// user is reported exactly once, with the estimate the wrapper itself
// reports, and the count is the sum over shards.
func TestShardedUsersPartition(t *testing.T) {
	const users = 500
	edges := randomEdges(23, 60000, users, 4000)
	s := newShardedFreeRS(8)
	s.ObserveBatch(edges)

	reported := make(map[uint64]float64, users)
	s.Users(func(u uint64, e float64) {
		if _, dup := reported[u]; dup {
			t.Fatalf("user %d reported twice", u)
		}
		reported[u] = e
	})
	if len(reported) != users {
		t.Fatalf("enumerated %d users, want %d", len(reported), users)
	}
	if s.NumUsers() != users {
		t.Fatalf("NumUsers %d, want %d", s.NumUsers(), users)
	}
	for u, e := range reported {
		if got := s.Estimate(u); got != e {
			t.Fatalf("user %d: Users reported %v, Estimate returns %v", u, e, got)
		}
	}
}

// TestShardedTopKDeterministic: two identically built sharded instances —
// one fed sequentially, one from 8 goroutines with shard-pure sub-batches —
// must agree exactly on TopK, because users partition across shards and
// each shard's sub-stream arrives in order.
func TestShardedTopKDeterministic(t *testing.T) {
	edges := randomEdges(31, 40000, 400, 3000)
	build := func() *Sharded {
		return NewSharded(4, func(i int) Estimator { return NewFreeRS(1<<19, WithSeed(uint64(i)+1)) })
	}
	seq, conc := build(), build()
	seq.ObserveBatch(edges)

	perShard := make([][]Edge, conc.NumShards())
	stream.ForEachRun(edges, func(u uint64, run []Edge) {
		i := conc.ShardIndex(u)
		perShard[i] = append(perShard[i], run...)
	})
	var wg sync.WaitGroup
	for _, sub := range perShard {
		wg.Add(1)
		go func(sub []Edge) {
			defer wg.Done()
			for len(sub) > 0 {
				n := 1000
				if n > len(sub) {
					n = len(sub)
				}
				conc.ObserveBatch(sub[:n])
				sub = sub[n:]
			}
		}(sub)
	}
	wg.Wait()

	a, b := TopK(seq, 20), TopK(conc, 20)
	if len(a) != len(b) {
		t.Fatalf("TopK lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopK[%d]: sequential %+v vs concurrent %+v", i, a[i], b[i])
		}
	}
}

// TestShardedUsersPanicsOnNonAnytime mirrors Windowed's contract: shard
// estimators without maintained per-user estimates cannot enumerate users,
// so NewSharded refuses them at construction.
func TestShardedUsersPanicsOnNonAnytime(t *testing.T) {
	mustPanic(t, func() { NewSharded(2, func(int) Estimator { return NewCSE(1<<16, 64) }) })
}

// TestShardedWindowedMergedTotal: with a shared seed, merging the per-shard
// windowed sketches generation by generation reconstructs exactly the
// single-window twin fed the whole stream and rotated at the same
// positions — so the merged total must be bit-identical, not just close.
func TestShardedWindowedMergedTotal(t *testing.T) {
	const seed = 9
	buildWin := func() *Windowed {
		return NewWindowed(func() Estimator { return NewFreeRS(1<<18, WithSeed(seed)) },
			WithGenerations(3))
	}
	s := NewSharded(4, func(int) Estimator { return buildWin() })
	twin := buildWin()

	edges := randomEdges(41, 45000, 250, 2500)
	for i := 0; i < 3; i++ {
		chunk := edges[i*15000 : (i+1)*15000]
		s.ObserveBatch(chunk)
		twin.ObserveBatch(chunk)
		s.Rotate()
		twin.Rotate()
	}
	merged, err := s.TotalDistinctMerged()
	if err != nil {
		t.Fatalf("TotalDistinctMerged over Windowed shards: %v", err)
	}
	if want := twin.TotalDistinct(); merged != want {
		t.Fatalf("merged total %v, single-window twin %v", merged, want)
	}
	// Per-user estimates also survive the sharding (exactness of
	// user-partitioning under a shared seed is NOT expected — other users'
	// edges shape the shared array — but totals above are exact and the
	// window epochs must agree).
	if s.shards[0].est.(*Windowed).Epoch() != twin.Epoch() {
		t.Fatalf("epochs diverged")
	}
}

// TestShardedWindowedMergedTotalEpochMismatch: a shard rotated out of line
// must surface ErrIncompatible rather than a blended-time-range number.
func TestShardedWindowedMergedTotalEpochMismatch(t *testing.T) {
	s := NewSharded(2, func(int) Estimator {
		return NewWindowed(func() Estimator { return NewFreeRS(1<<16, WithSeed(3)) })
	})
	s.ObserveBatch(randomEdges(5, 1000, 50, 500))
	s.shards[1].est.(*Windowed).Rotate() // bypass Sharded.Rotate: desync
	if _, err := s.TotalDistinctMerged(); err == nil {
		t.Fatal("merged total over desynced windows succeeded")
	}
	sum := s.TotalDistinct() // the fallback keeps working
	if sum <= 0 || math.IsNaN(sum) {
		t.Fatalf("fallback TotalDistinct %v", sum)
	}
}
