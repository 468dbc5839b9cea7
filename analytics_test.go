package streamcard

// Tests for the shard-concurrent analytics read path: the parallel TopK
// must be bit-identical to the sequential reference across shard counts,
// k values, and tie-heavy inputs, and the whole path must be race-free
// under concurrent ingest and rotation.

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hashing"
)

// analyticsStack builds the serving shape — Sharded(Windowed(FreeRS)) with
// a shared seed (so merged reads work) — filled with the given edges and
// rotated at each boundary index so several generations are live.
func analyticsStack(shards, gens int, edges []Edge, rotations int) *Sharded {
	s := NewSharded(shards, func(int) Estimator {
		return NewWindowed(func() Estimator { return NewFreeRS(1<<16, WithSeed(7)) }, WithGenerations(gens))
	})
	step := len(edges) / (rotations + 1)
	for i := 0; i <= rotations; i++ {
		lo, hi := i*step, (i+1)*step
		if i == rotations {
			hi = len(edges)
		}
		s.ObserveBatch(edges[lo:hi])
		if i < rotations {
			s.Rotate()
		}
	}
	return s
}

// burstyEdges is a spread-out workload: users with 1..8 items each.
func burstyEdges(users int, seed uint64) []Edge {
	rng := hashing.NewRNG(seed)
	var edges []Edge
	for u := 1; u <= users; u++ {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			edges = append(edges, Edge{User: uint64(u), Item: rng.Uint64()})
		}
	}
	return edges
}

// tieEdges is a tie-rich workload: exactly one item per user. Shards share
// a seed and start identical, so the j-th credited edge in each shard earns
// the same credit — estimates collide exactly across shards, exercising the
// tie-breaking merge.
func tieEdges(users int, seed uint64) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, users)
	for u := 1; u <= users; u++ {
		edges[u-1] = Edge{User: uint64(u), Item: rng.Uint64()}
	}
	return edges
}

func TestParallelTopKBitIdenticalToSerial(t *testing.T) {
	// Force a real worker pool even on single-core hosts: GOMAXPROCS may
	// exceed NumCPU, and the fan-out sizes its pool from GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const users = 3000
	workloads := map[string][]Edge{
		"bursty": burstyEdges(users, 11),
		"ties":   tieEdges(users, 12),
	}
	for name, edges := range workloads {
		for _, shards := range []int{1, 3, 8} {
			s := analyticsStack(shards, 3, edges, 2)
			v := s.Snapshot()
			if v == nil {
				t.Fatalf("%s/%d: no snapshot", name, shards)
			}
			if name == "ties" {
				distinct := map[float64]bool{}
				v.Users(func(_ uint64, e float64) { distinct[e] = true })
				if len(distinct) >= users {
					t.Fatalf("%s/%d: workload produced no estimate ties", name, shards)
				}
			}
			for _, k := range []int{1, 10, users + 7} {
				want := TopKSerial(v, k)
				got := v.TopK(k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shards=%d k=%d: parallel TopK diverges from serial reference\ngot  %v\nwant %v",
						name, shards, k, got, want)
				}
				// The public entry point must delegate to the same path.
				if free := TopK(v, k); !reflect.DeepEqual(free, want) {
					t.Fatalf("%s shards=%d k=%d: TopK(view) diverges", name, shards, k)
				}
				if live := s.TopK(k); !reflect.DeepEqual(live, want) {
					t.Fatalf("%s shards=%d k=%d: Sharded.TopK diverges", name, shards, k)
				}
			}
		}
	}
}

func TestMergeTopKTieBreaking(t *testing.T) {
	per := [][]Spreader{
		{{User: 5, Estimate: 2}, {User: 9, Estimate: 1}},
		{},
		{{User: 3, Estimate: 2}, {User: 7, Estimate: 2}},
		{{User: 1, Estimate: 0.5}},
	}
	got := mergeTopK(per, 3)
	want := []Spreader{{User: 3, Estimate: 2}, {User: 5, Estimate: 2}, {User: 7, Estimate: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tied merge: got %v want %v", got, want)
	}
	if all := mergeTopK(per, 100); len(all) != 5 {
		t.Fatalf("k beyond candidates: len %d want 5", len(all))
	}
	if mergeTopK([][]Spreader{nil, {}}, 3) != nil {
		t.Fatal("empty merge should be nil")
	}
}

// TestAnalyticsRaceStorm drives concurrent analytics queries against live
// ingest and rotation — run under -race in CI.
func TestAnalyticsRaceStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := NewSharded(8, func(int) Estimator {
		return NewWindowed(func() Estimator { return NewFreeRS(1<<14, WithSeed(7)) },
			WithGenerations(3))
	})
	const (
		writers  = 2
		queriers = 4
		rounds   = 60
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := hashing.NewRNG(seed)
			batch := make([]Edge, 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = Edge{User: uint64(rng.Intn(5000)), Item: rng.Uint64()}
				}
				s.ObserveBatch(batch)
			}
		}(uint64(w) + 41)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Rotate()
			}
		}
	}()
	var qwg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for r := 0; r < rounds; r++ {
				v := s.Snapshot()
				if v == nil {
					continue
				}
				top := v.TopK(10)
				for i := 1; i < len(top); i++ {
					if !spreaderWins(top[i-1], top[i]) {
						panic("top-k out of order")
					}
				}
				_ = v.NumUsers()
				n := 0
				v.RangeUsers(func(uint64, float64) { n++ })
				_, _ = v.TotalDistinctMerged()
			}
		}()
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
}
