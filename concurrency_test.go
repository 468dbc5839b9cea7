package streamcard

// Concurrency hardening for Sharded, the layer whose whole job is to make
// the sketches safe under line-rate multi-threaded ingestion. Two layers of
// assurance:
//
//   - Determinism: a user's edges all land in one shard, so when each worker
//     feeds a shard-pure sub-stream (the deployment shape ShardIndex exists
//     for), per-shard edge order is deterministic regardless of scheduling —
//     and every per-user estimate must be BIT-IDENTICAL to a sequentially
//     fed twin instance. This catches lost updates, torn map writes, and any
//     batch-vs-edge divergence, not just data races.
//
//   - Chaos: workers hammer one instance with overlapping users through both
//     Observe and ObserveBatch, concurrently with readers. This asserts
//     nothing about values; under `go test -race` it is a pure detector for
//     unsynchronized access (queries included, which take the same locks).
//
// Run with -race in CI; the determinism half is also meaningful without it.

import (
	"sync"
	"testing"

	"repro/internal/hashing"
)

const concWorkers = 8 // goroutines = shards in the determinism test

func buildSharded(kind string) *Sharded {
	return NewSharded(concWorkers, func(i int) Estimator {
		seed := WithSeed(uint64(i)*1000 + 7)
		if kind == "FreeBS" {
			return NewFreeBS(1<<16, seed)
		}
		return NewFreeRS(1<<16, seed)
	})
}

// shardPureStreams partitions a deterministic edge stream into one
// sub-stream per shard, preserving relative order.
func shardPureStreams(s *Sharded, nEdges int, seed uint64) [][]Edge {
	rng := hashing.NewRNG(seed)
	streams := make([][]Edge, s.NumShards())
	for total := 0; total < nEdges; {
		u := uint64(rng.Intn(5000) + 1)
		run := rng.Intn(12) + 1
		t := s.ShardIndex(u)
		for r := 0; r < run; r++ {
			streams[t] = append(streams[t], Edge{User: u, Item: rng.Uint64()})
			total++
		}
	}
	return streams
}

func TestShardedConcurrentBitIdentical(t *testing.T) {
	for _, kind := range []string{"FreeBS", "FreeRS"} {
		t.Run(kind, func(t *testing.T) {
			conc := buildSharded(kind)
			ref := buildSharded(kind)
			streams := shardPureStreams(conc, 60000, 99)

			// Reference: same per-shard streams, fed sequentially per edge.
			users := map[uint64]struct{}{}
			for _, st := range streams {
				for _, e := range st {
					ref.Observe(e.User, e.Item)
					users[e.User] = struct{}{}
				}
			}

			// Concurrent: one worker per shard-pure stream, first half per
			// edge, second half in odd-sized batches, racing across shards.
			var wg sync.WaitGroup
			for w := 0; w < concWorkers; w++ {
				wg.Add(1)
				go func(st []Edge) {
					defer wg.Done()
					half := len(st) / 2
					for _, e := range st[:half] {
						conc.Observe(e.User, e.Item)
					}
					for i := half; i < len(st); i += 41 {
						end := i + 41
						if end > len(st) {
							end = len(st)
						}
						conc.ObserveBatch(st[i:end])
					}
				}(streams[w])
			}
			wg.Wait()

			for u := range users {
				if got, want := conc.Estimate(u), ref.Estimate(u); got != want {
					t.Fatalf("user %d: concurrent estimate %v != sequential %v (must be bit-identical)", u, got, want)
				}
			}
			if got, want := conc.TotalDistinct(), ref.TotalDistinct(); got != want {
				t.Fatalf("TotalDistinct: concurrent %v != sequential %v", got, want)
			}
		})
	}
}

// TestShardedWindowedConcurrentBitIdentical extends the determinism contract
// to the time layer: a Sharded(Windowed(FreeRS)) fed shard-pure streams from
// one goroutine per shard, with Sharded.Rotate issued at barriers between
// feeding phases, must produce BIT-IDENTICAL per-user estimates to a
// sequential twin rotated at the same stream positions — rotation fans out
// under the same shard locks as ingestion, so no batch can tear across an
// epoch boundary.
func TestShardedWindowedConcurrentBitIdentical(t *testing.T) {
	mk := func() *Sharded {
		return NewSharded(concWorkers, func(i int) Estimator {
			return NewWindowed(func() Estimator {
				return NewFreeRS(1<<16, WithSeed(uint64(i)*1000+7))
			}, WithGenerations(3))
		})
	}
	conc, ref := mk(), mk()
	streams := shardPureStreams(conc, 60000, 42)
	const phases = 4 // a rotation between consecutive phases

	// Reference: phase by phase, each shard's slice fed sequentially, then
	// one rotation.
	users := map[uint64]struct{}{}
	for p := 0; p < phases; p++ {
		for _, st := range streams {
			lo, hi := len(st)*p/phases, len(st)*(p+1)/phases
			for _, e := range st[lo:hi] {
				ref.Observe(e.User, e.Item)
				users[e.User] = struct{}{}
			}
		}
		if p < phases-1 {
			ref.Rotate()
		}
	}

	// Concurrent: within each phase one worker per shard-pure stream races
	// across shards, mixing per-edge and batched feeding; the rotation is
	// issued between phases, at the same stream positions as the reference.
	for p := 0; p < phases; p++ {
		var wg sync.WaitGroup
		for w := 0; w < concWorkers; w++ {
			wg.Add(1)
			go func(st []Edge) {
				defer wg.Done()
				lo, hi := len(st)*p/phases, len(st)*(p+1)/phases
				seg := st[lo:hi]
				half := len(seg) / 2
				for _, e := range seg[:half] {
					conc.Observe(e.User, e.Item)
				}
				for i := half; i < len(seg); i += 37 {
					end := i + 37
					if end > len(seg) {
						end = len(seg)
					}
					conc.ObserveBatch(seg[i:end])
				}
			}(streams[w])
		}
		wg.Wait()
		if p < phases-1 {
			conc.Rotate()
		}
	}

	for u := range users {
		if got, want := conc.Estimate(u), ref.Estimate(u); got != want {
			t.Fatalf("user %d: concurrent windowed estimate %v != sequential %v", u, got, want)
		}
	}
	if got, want := conc.TotalDistinct(), ref.TotalDistinct(); got != want {
		t.Fatalf("TotalDistinct: concurrent %v != sequential %v", got, want)
	}
}

// TestShardedWindowedRotateChaos races Sharded.Rotate against concurrent
// Observe/ObserveBatch/queries from every worker — the timer-driven
// deployment shape. It asserts only liveness and sane totals; under
// `go test -race` it is the detector for rotation tearing a batch.
func TestShardedWindowedRotateChaos(t *testing.T) {
	s := NewSharded(4, func(i int) Estimator {
		return NewWindowed(func() Estimator {
			return NewFreeRS(1<<14, WithSeed(uint64(i)+1))
		}, WithGenerations(3))
	})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := hashing.NewRNG(uint64(id) + 1)
			batch := make([]Edge, 0, 64)
			for i := 0; i < 3000; i++ {
				u := uint64(rng.Intn(500) + 1)
				switch i % 3 {
				case 0:
					s.Observe(u, rng.Uint64())
				case 1:
					batch = batch[:0]
					for k := 0; k < 32; k++ {
						batch = append(batch, Edge{User: u, Item: rng.Uint64()})
					}
					s.ObserveBatch(batch)
				default:
					_ = s.Estimate(u)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Rotate()
		}
	}()
	wg.Wait()
	<-done
	if s.TotalDistinct() < 0 {
		t.Fatal("negative total after rotate chaos")
	}
	mustPanic(t, func() {
		NewSharded(2, func(i int) Estimator { return NewFreeRS(1 << 12) }).Rotate()
	})
}

// TestShardedConcurrentChaos hammers one Sharded instance with overlapping
// users from every worker, mixing Observe, ObserveBatch, and concurrent
// queries. Value assertions are minimal; the point is that `go test -race`
// sees every code path under genuine contention.
func TestShardedConcurrentChaos(t *testing.T) {
	for _, kind := range []string{"FreeBS", "FreeRS"} {
		t.Run(kind, func(t *testing.T) {
			s := buildSharded(kind)
			var wg sync.WaitGroup
			for w := 0; w < concWorkers+2; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := hashing.NewRNG(uint64(id) + 1)
					batch := make([]Edge, 0, 64)
					for i := 0; i < 4000; i++ {
						u := uint64(rng.Intn(500) + 1) // heavy user overlap
						switch i % 3 {
						case 0:
							s.Observe(u, rng.Uint64())
						case 1:
							batch = batch[:0]
							for k := 0; k < 32; k++ {
								batch = append(batch, Edge{User: u, Item: rng.Uint64()})
							}
							s.ObserveBatch(batch)
						default:
							_ = s.Estimate(u)
							if i%31 == 0 {
								_ = s.TotalDistinct()
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if s.TotalDistinct() <= 0 {
				t.Fatal("chaos run produced a non-positive total")
			}
		})
	}
}
