package streamcard

// This file holds one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md §5. Each experiment bench runs the corresponding
// internal/experiments runner at a reduced scale and reports the headline
// quantities via b.ReportMetric, so `go test -bench=.` regenerates the
// paper's rows/series end to end; `cmd/cardbench` prints the full tables.

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/hashing"
)

// benchScale keeps each bench iteration around a second.
const benchScale = 0.002

func benchConfig() experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: 1}
}

// BenchmarkTable1DatasetGen regenerates Table I (dataset synthesis +
// summary statistics) and reports the realized total cardinality of the
// first dataset.
func BenchmarkTable1DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].TotalCard), "totalcard")
	}
}

// BenchmarkFig2CCDF regenerates the cardinality CCDFs of Fig. 2 and reports
// the heavy-tail mass P(card >= 100) of the orkut analogue.
func BenchmarkFig2CCDF(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"orkut"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series[0]
		for j, x := range s.X {
			if x >= 100 {
				b.ReportMetric(s.Y[j], "ccdf@100")
				break
			}
		}
	}
}

// BenchmarkFig3Update measures the paper's per-edge streaming cost (update
// + tracked-counter refresh) for each method at the paper's m = 1024 —
// the Fig. 3 series at its rightmost decade. FreeBS/FreeRS are O(1); the
// others pay O(m) per edge.
func BenchmarkFig3Update(b *testing.B) {
	const m = 1024
	const M = 1 << 23
	gen := datagen.Generate(datagen.Config{
		Name: "bench", Users: 20000, MaxCard: 1000, TotalCard: 100000,
		DuplicateRate: 0.15, Seed: 1,
	})
	edges := gen.Edges
	for _, name := range experiments.AllMethods {
		b.Run(name, func(b *testing.B) {
			spec := experiments.MethodSpec{
				MemoryBits: M, VirtualM: m,
				NumUsers: gen.NumUsers(), Seed: 1,
			}
			methods, err := experiments.Build(spec, []string{name})
			if err != nil {
				b.Fatal(err)
			}
			mt := methods[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				mt.Observe(e.User, e.Item)
				_ = mt.TrackedEstimate(e.User)
			}
		})
	}
}

// BenchmarkFig4Scatter regenerates the estimated-vs-actual scatter of
// Fig. 4 on the orkut analogue and reports each run's FreeRS average
// relative error.
func BenchmarkFig4Scatter(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"orkut"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ARE[experiments.NameFreeRS], "freers-are")
		b.ReportMetric(res.ARE[experiments.NameVHLL], "vhll-are")
	}
}

// BenchmarkFig5RSE regenerates the RSE-vs-cardinality curves of Fig. 5, one
// sub-bench per dataset, reporting the small-cardinality RSE advantage of
// FreeBS over CSE (the up-to-10^4× claim of §V-E).
func BenchmarkFig5RSE(b *testing.B) {
	for _, ds := range datagen.DatasetNames {
		b.Run(ds, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Datasets = []string{ds}
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig5(cfg)
				if err != nil {
					b.Fatal(err)
				}
				curves := res.Curves[ds]
				fb := curves[experiments.NameFreeBS]
				cs := curves[experiments.NameCSE]
				if len(fb) > 0 && len(cs) > 0 && fb[0].RSE > 0 {
					b.ReportMetric(cs[0].RSE/fb[0].RSE, "cse/freebs-rse@small")
				}
			}
		})
	}
}

// BenchmarkFig6SpreaderTime regenerates the over-time super-spreader
// experiment of Fig. 6 (sanjose, 60 evaluation instants) and reports the
// final-minute FNR of FreeBS and vHLL.
func BenchmarkFig6SpreaderTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Minute == 60 {
				switch p.Method {
				case experiments.NameFreeBS:
					b.ReportMetric(p.FNR, "freebs-fnr@60")
				case experiments.NameVHLL:
					b.ReportMetric(p.FNR, "vhll-fnr@60")
				}
			}
		}
	}
}

// BenchmarkTable2Spreader regenerates Table II, one sub-bench per dataset,
// reporting FreeRS and vHLL FNR.
func BenchmarkTable2Spreader(b *testing.B) {
	for _, ds := range datagen.DatasetNames {
		b.Run(ds, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Datasets = []string{ds}
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunTable2(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range res.Rows {
					switch row.Method {
					case experiments.NameFreeRS:
						b.ReportMetric(row.FNR, "freers-fnr")
					case experiments.NameVHLL:
						b.ReportMetric(row.FNR, "vhll-fnr")
					}
				}
			}
		})
	}
}

// ---- ablation benches (DESIGN.md §5) ----

// BenchmarkAblationPostUpdateQ measures the bias introduced by the literal
// Algorithm-2 update order (crediting 1/q after updating q) versus the
// Theorem-2 order implemented by default. Reported metric: mean relative
// bias of each variant on a known-cardinality stream.
func BenchmarkAblationPostUpdateQ(b *testing.B) {
	const M, n, trials = 512, 2000, 40
	for i := 0; i < b.N; i++ {
		var sumPre, sumPost float64
		for tr := 0; tr < trials; tr++ {
			seed := uint64(i*trials+tr)*7919 + 1
			pre := core.NewFreeRS(M, seed)
			post := core.NewFreeRS(M, seed, core.WithPostUpdateQRS())
			for j := 0; j < n; j++ {
				pre.Observe(1, uint64(j))
				post.Observe(1, uint64(j))
			}
			sumPre += pre.Estimate(1)
			sumPost += post.Estimate(1)
		}
		b.ReportMetric(sumPre/trials/n-1, "pre-bias")
		b.ReportMetric(sumPost/trials/n-1, "post-bias")
	}
}

// BenchmarkAblationCrossover measures the §IV-C crossover between FreeBS
// (M bits) and FreeRS (M/5 registers) under equal memory: RSE of each for a
// user whose pairs arrive late in a long stream, past the theoretical
// crossover position.
func BenchmarkAblationCrossover(b *testing.B) {
	const mBits = 1 << 14
	cross := core.CrossoverPosition(mBits, 5)
	for i := 0; i < b.N; i++ {
		const trials = 30
		const nUser = 300
		var seBS, seRS float64
		for tr := 0; tr < trials; tr++ {
			seed := uint64(i*trials+tr)*104729 + 13
			fb := core.NewFreeBS(mBits, seed)
			fr := core.NewFreeRS(mBits/5, seed)
			rng := hashing.NewRNG(seed)
			// Background noise up to ~1.2x the crossover position, then the
			// late user arrives.
			noise := int(1.2 * cross)
			for j := 0; j < noise; j++ {
				u, d := uint64(rng.Intn(1000)+10), rng.Uint64()
				fb.Observe(u, d)
				fr.Observe(u, d)
			}
			for j := 0; j < nUser; j++ {
				fb.Observe(1, uint64(j))
				fr.Observe(1, uint64(j))
			}
			dbs := fb.Estimate(1) - nUser
			drs := fr.Estimate(1) - nUser
			seBS += dbs * dbs
			seRS += drs * drs
		}
		b.ReportMetric(math.Sqrt(seBS/trials)/nUser, "freebs-rse-late")
		b.ReportMetric(math.Sqrt(seRS/trials)/nUser, "freers-rse-late")
	}
}

// BenchmarkAblationRegisterWidth sweeps FreeRS register widths w ∈ {4,5}
// under equal total memory — the paper fixes w=5; w=4 trades range for
// more registers.
func BenchmarkAblationRegisterWidth(b *testing.B) {
	const memBits = 1 << 16
	for _, w := range []uint8{4, 5} {
		b.Run(string(rune('0'+w))+"bit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				const trials = 20
				const n = 20000
				var se float64
				for tr := 0; tr < trials; tr++ {
					f := core.NewFreeRS(memBits/int(w), uint64(i*trials+tr)+1,
						core.WithRegisterWidth(w))
					for j := 0; j < n; j++ {
						f.Observe(1, uint64(j))
					}
					d := f.Estimate(1) - n
					se += d * d
				}
				b.ReportMetric(math.Sqrt(se/trials)/n, "rse")
			}
		})
	}
}

// BenchmarkTheoremVarianceBounds checks empirical variance against the
// Theorem 1/2 closed forms at bench scale and reports the ratio (should be
// <= 1 up to sampling noise).
func BenchmarkTheoremVarianceBounds(b *testing.B) {
	const M, nUser, nNoise, trials = 1 << 12, 200, 4000, 60
	for i := 0; i < b.N; i++ {
		var sum, sumsq float64
		for tr := 0; tr < trials; tr++ {
			f := core.NewFreeBS(M, uint64(i*trials+tr)*31+7)
			rng := hashing.NewRNG(uint64(tr) + 99)
			for j := 0; j < nUser; j++ {
				f.Observe(1, uint64(j))
				for k := 0; k < nNoise/nUser; k++ {
					f.Observe(2+uint64(rng.Intn(50)), rng.Uint64())
				}
			}
			e := f.Estimate(1)
			sum += e
			sumsq += e * e
		}
		mean := sum / trials
		empVar := sumsq/trials - mean*mean
		bound := core.FreeBSVarianceBound(nUser, nUser+nNoise, M)
		b.ReportMetric(empVar/bound, "var/bound")
	}
}

// BenchmarkExactTrackerBaseline reports the cost of exact tracking — the
// memory-infeasible baseline whose avoidance motivates the whole paper.
func BenchmarkExactTrackerBaseline(b *testing.B) {
	tr := exact.NewTracker()
	rng := hashing.NewRNG(1)
	users := make([]uint64, 8192)
	items := make([]uint64, 8192)
	for i := range users {
		users[i] = uint64(rng.Intn(50000))
		items[i] = rng.Uint64() % 100000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(users[i&8191], items[i&8191])
	}
}

// ---- batched ingestion benches ----

// benchBurstEdges builds a power-of-two-sized bursty stream: users emit runs
// of 1..24 consecutive edges (the arrival shape of real traces, and what the
// batch fast path amortizes over), drawn from a large user space.
func benchBurstEdges(n int, seed uint64) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, 0, n)
	for len(edges) < n {
		u := uint64(rng.Intn(100000) + 1)
		run := rng.Intn(24) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: rng.Uint64()})
		}
	}
	return edges
}

// BenchmarkObserveBatch compares per-edge Observe against ObserveBatch for
// the headline methods on the same bursty workload. Both sub-benches are
// measured per edge, so ns/op is directly comparable: the batch win comes
// from hoisting the user half of the pair hash and the estimate-map access
// out of each run.
func BenchmarkObserveBatch(b *testing.B) {
	edges := benchBurstEdges(1<<16, 1)
	mask := len(edges) - 1
	builders := []struct {
		name string
		mk   func() Estimator
	}{
		{"FreeBS", func() Estimator { return NewFreeBS(1 << 22) }},
		{"FreeRS", func() Estimator { return NewFreeRS(1 << 22) }},
	}
	for _, bl := range builders {
		b.Run(bl.name+"/observe", func(b *testing.B) {
			est := bl.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i&mask]
				est.Observe(e.User, e.Item)
			}
		})
		b.Run(bl.name+"/batch1k", func(b *testing.B) {
			est := bl.mk()
			const chunk = 1024
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				off := i & mask
				c := edges[off : off+chunk]
				if rem := b.N - i; rem < chunk {
					c = c[:rem]
				}
				est.ObserveBatch(c)
			}
		})
	}
}

// BenchmarkShardedBatch quantifies the tentpole claim on the concurrency
// layer: grouping a batch by shard and taking each shard's mutex once per
// batch must beat the per-edge Observe loop (lock per edge) on the same
// workload — sequentially and under contention from GOMAXPROCS goroutines.
// All variants are measured per edge.
func BenchmarkShardedBatch(b *testing.B) {
	edges := benchBurstEdges(1<<16, 2)
	mask := len(edges) - 1
	const chunk = 1024
	builders := []struct {
		name string
		mk   func() *Sharded
	}{
		{"FreeBS", func() *Sharded {
			return NewSharded(8, func(i int) Estimator {
				return NewFreeBS(1<<19, WithSeed(uint64(i)+1))
			})
		}},
		{"FreeRS", func() *Sharded {
			return NewSharded(8, func(i int) Estimator {
				return NewFreeRS(1<<19, WithSeed(uint64(i)+1))
			})
		}},
	}
	for _, bl := range builders {
		b.Run(bl.name+"/observe", func(b *testing.B) {
			s := bl.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i&mask]
				s.Observe(e.User, e.Item)
			}
		})
		b.Run(bl.name+"/batch1k", func(b *testing.B) {
			s := bl.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				off := i & mask
				c := edges[off : off+chunk]
				if rem := b.N - i; rem < chunk {
					c = c[:rem]
				}
				s.ObserveBatch(c)
			}
		})
		b.Run(bl.name+"/parallel-observe", func(b *testing.B) {
			s := bl.mk()
			var next uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := int(atomic.AddUint64(&next, 9176)) & mask
				for pb.Next() {
					e := edges[off]
					s.Observe(e.User, e.Item)
					off = (off + 1) & mask
				}
			})
		})
		b.Run(bl.name+"/parallel-batch1k", func(b *testing.B) {
			s := bl.mk()
			var next uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := int(atomic.AddUint64(&next, uint64(11*chunk))) & mask
				pending := 0
				for pb.Next() {
					pending++
					if pending == chunk {
						s.ObserveBatch(edges[off : off+chunk])
						pending = 0
						off = (off + chunk) & mask
					}
				}
				if pending > 0 {
					s.ObserveBatch(edges[off : off+pending])
				}
			})
		})
	}
}

// ---- windowed benches ----

// BenchmarkWindowedObserve compares the windowed ingest path against the
// bare estimator on the same bursty workload, per edge and per 1k-edge
// batch, at k ∈ {2, 4} with edge-driven rotation. CI's benchmark smoke runs
// it once per commit.
func BenchmarkWindowedObserve(b *testing.B) {
	edges := benchBurstEdges(1<<16, 4)
	mask := len(edges) - 1
	builders := []struct {
		name string
		mk   func() Estimator
	}{
		{"plain", func() Estimator { return NewFreeRS(1 << 22) }},
		{"k2", func() Estimator {
			return NewWindowed(func() Estimator { return NewFreeRS(1 << 22) },
				WithGenerations(2), WithRotateEveryEdges(1<<20))
		}},
		{"k4", func() Estimator {
			return NewWindowed(func() Estimator { return NewFreeRS(1 << 22) },
				WithGenerations(4), WithRotateEveryEdges(1<<18))
		}},
	}
	for _, bl := range builders {
		b.Run(bl.name+"/observe", func(b *testing.B) {
			est := bl.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i&mask]
				est.Observe(e.User, e.Item)
			}
		})
		b.Run(bl.name+"/batch1k", func(b *testing.B) {
			est := bl.mk()
			const chunk = 1024
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				off := i & mask
				c := edges[off : off+chunk]
				if rem := b.N - i; rem < chunk {
					c = c[:rem]
				}
				est.ObserveBatch(c)
			}
		})
	}
}

// BenchmarkWindowedRotate measures one epoch boundary on a loaded window:
// allocate a fresh generation, age the live ones, retire the oldest.
func BenchmarkWindowedRotate(b *testing.B) {
	edges := benchBurstEdges(1<<15, 5)
	w := NewWindowed(func() Estimator { return NewFreeRS(1 << 20) }, WithGenerations(4))
	w.ObserveBatch(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Rotate()
	}
}

// BenchmarkMerge measures combining two loaded sketches — the aggregation
// step a coordinator runs per reporting interval, not per edge.
func BenchmarkMerge(b *testing.B) {
	edges := benchBurstEdges(1<<16, 3)
	b.Run("FreeBS", func(b *testing.B) {
		a := NewFreeBS(1 << 20)
		o := NewFreeBS(1 << 20)
		a.ObserveBatch(edges[:1<<15])
		o.ObserveBatch(edges[1<<15:])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := a.Clone()
			if err := c.Merge(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FreeRS", func(b *testing.B) {
		a := NewFreeRS(1 << 20)
		o := NewFreeRS(1 << 20)
		a.ObserveBatch(edges[:1<<15])
		o.ObserveBatch(edges[1<<15:])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := a.Clone()
			if err := c.Merge(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFacadeObserve measures the public API's per-edge overhead for
// the two headline methods.
func BenchmarkFacadeObserve(b *testing.B) {
	for _, est := range []Estimator{NewFreeBS(1 << 22), NewFreeRS(1 << 22)} {
		b.Run(est.Name(), func(b *testing.B) {
			rng := hashing.NewRNG(1)
			users := make([]uint64, 8192)
			items := make([]uint64, 8192)
			for i := range users {
				users[i] = uint64(rng.Intn(100000))
				items[i] = rng.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.Observe(users[i&8191], items[i&8191])
			}
		})
	}
}
