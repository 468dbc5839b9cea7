package streamcard

// Tests for estimates-only publication: published views carry the per-user
// tables and the arrays' maintained statistics but never the array words,
// so arming publication no longer makes every absorb copy a shard's array,
// every estimate read still equals a full snapshot's bit for bit, and the
// readers of array words (checkpoints, merges) refuse such views loudly
// instead of reading an empty array.

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/hashing"
)

// allocBytes reports the bytes the process allocated while fn ran.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// shardEdges returns n edges over a few users that all route to shard idx.
func shardEdges(s *Sharded, idx, n int, rng *hashing.RNG) []Edge {
	var users []uint64
	for u := uint64(1); len(users) < 8; u++ {
		if s.ShardIndex(u) == idx {
			users = append(users, u)
		}
	}
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{User: users[rng.Intn(len(users))], Item: rng.Uint64()}
	}
	return edges
}

// TestArmedAbsorbCopiesNoArray: on a served Sharded(Windowed(...)) stack,
// publication forks only the per-user table, so a small absorb with
// publication armed allocates a small fraction of the shard's array; the
// array is copied only after a full cut, exactly once per shard — the
// current generation's, never an older one's.
func TestArmedAbsorbCopiesNoArray(t *testing.T) {
	const (
		shards       = 2
		bitsPerShard = 1 << 22
	)
	for _, tc := range []struct {
		name  string
		build func() Estimator
	}{
		{"FreeRS", func() Estimator { return NewFreeRS(bitsPerShard, WithSeed(3)) }},
		{"FreeBS", func() Estimator { return NewFreeBS(bitsPerShard, WithSeed(3)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arrayBytes := uint64(tc.build().MemoryBits() / 8)
			s := NewSharded(shards, func(int) Estimator {
				return NewWindowed(tc.build, WithGenerations(2))
			})
			// Few users, so the per-user tables stay far below the array
			// size and cannot be mistaken for an array copy.
			rng := hashing.NewRNG(11)
			fill := func() []Edge {
				edges := make([]Edge, 4096)
				for i := range edges {
					edges[i] = Edge{User: uint64(rng.Intn(200) + 1), Item: rng.Uint64()}
				}
				return edges
			}
			s.ObserveBatch(fill())
			s.Rotate() // an older generation with data is live from here on
			s.ObserveBatch(fill())
			if s.Snapshot() == nil { // arms writer-side publication
				t.Fatal("stack must be snapshottable")
			}

			for i := 0; i < shards; i++ {
				edges := shardEdges(s, i, 64, rng)
				if got := allocBytes(func() { s.ObserveShardBatch(i, edges) }); got >= arrayBytes/8 {
					t.Fatalf("shard %d: armed 64-edge absorb allocated %d B, want < %d (1/8 of the %d B array)",
						i, got, arrayBytes/8, arrayBytes)
				}
			}

			if s.FullSnapshot() == nil {
				t.Fatal("FullSnapshot returned nil for a snapshottable stack")
			}
			for i := 0; i < shards; i++ {
				a, b := shardEdges(s, i, 64, rng), shardEdges(s, i, 64, rng)
				first := allocBytes(func() { s.ObserveShardBatch(i, a) })
				if first < arrayBytes || first >= 2*arrayBytes {
					t.Fatalf("shard %d: first write after a full cut allocated %d B, want one %d B array copy",
						i, first, arrayBytes)
				}
				second := allocBytes(func() { s.ObserveShardBatch(i, b) })
				if second >= arrayBytes/8 {
					t.Fatalf("shard %d: second write after a full cut allocated %d B: the array was copied again", i, second)
				}
			}
		})
	}
}

// sketchStats returns the array-derived readings of a FreeBS/FreeRS (for a
// Windowed, of every live generation in order): the running total, the
// array's own total and the change probability.
func sketchStats(t *testing.T, e Estimator) []float64 {
	t.Helper()
	switch g := e.(type) {
	case *FreeBS:
		return []float64{g.inner.TotalDistinct(), g.inner.TotalDistinctLPC(), g.inner.ChangeProbability()}
	case *FreeRS:
		return []float64{g.inner.TotalDistinct(), g.inner.TotalDistinctHLL(), g.inner.ChangeProbability()}
	case *Windowed:
		var out []float64
		g.ring.View(func(live []Estimator) {
			for _, gen := range live {
				out = append(out, sketchStats(t, gen)...)
			}
		})
		return out
	}
	t.Fatalf("no statistics for %s", e.Name())
	return nil
}

type userEstimate struct {
	user uint64
	est  float64
}

func usersOf(a AnytimeEstimator) []userEstimate {
	var out []userEstimate
	a.Users(func(u uint64, e float64) { out = append(out, userEstimate{u, e}) })
	return out
}

// TestEstimatesOnlyViewsExactAndLoud: for every snapshottable estimator,
// the published (estimates-only) view answers every estimate read bit for
// bit like a full snapshot of the same instant, while MarshalBinary and
// Merge — the readers of array words — refuse it, so a checkpoint can
// never silently carry an empty array.
func TestEstimatesOnlyViewsExactAndLoud(t *testing.T) {
	const bits = 1 << 16
	windowed := func(build func() Estimator) *Windowed {
		w := NewWindowed(build, WithGenerations(3))
		rng := hashing.NewRNG(21)
		for i := 0; i < 3; i++ {
			w.ObserveBatch(randomBatch(rng, 3000))
			w.Rotate()
		}
		w.ObserveBatch(randomBatch(rng, 3000))
		return w
	}
	for _, tc := range []struct {
		name string
		// fork feeds a fresh estimator and returns its full and
		// estimates-only forks, plus a merge of src into a full copy of
		// the estimator.
		fork func() (full, view Estimator, merge func(src Estimator) error)
	}{
		{"FreeBS", func() (Estimator, Estimator, func(Estimator) error) {
			f := NewFreeBS(bits, WithSeed(5))
			f.ObserveBatch(randomBatch(hashing.NewRNG(21), 12000))
			return f.Snapshot(), f.SnapshotView(), func(src Estimator) error { return f.Clone().Merge(src.(*FreeBS)) }
		}},
		{"FreeRS", func() (Estimator, Estimator, func(Estimator) error) {
			f := NewFreeRS(bits, WithSeed(5))
			f.ObserveBatch(randomBatch(hashing.NewRNG(21), 12000))
			return f.Snapshot(), f.SnapshotView(), func(src Estimator) error { return f.Clone().Merge(src.(*FreeRS)) }
		}},
		{"Windowed(FreeBS)", func() (Estimator, Estimator, func(Estimator) error) {
			w := windowed(func() Estimator { return NewFreeBS(bits, WithSeed(5)) })
			return w.fullSnapshot(), w.Snapshot(), func(src Estimator) error { return w.Clone().Merge(src.(*Windowed)) }
		}},
		{"Windowed(FreeRS)", func() (Estimator, Estimator, func(Estimator) error) {
			w := windowed(func() Estimator { return NewFreeRS(bits, WithSeed(5)) })
			return w.fullSnapshot(), w.Snapshot(), func(src Estimator) error { return w.Clone().Merge(src.(*Windowed)) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, view, merge := tc.fork()
			fa, va := full.(AnytimeEstimator), view.(AnytimeEstimator)

			same := func(what string, a, b float64) {
				t.Helper()
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: view %v, full snapshot %v", what, b, a)
				}
			}
			same("TotalDistinct", full.TotalDistinct(), view.TotalDistinct())
			fs, vs := sketchStats(t, full), sketchStats(t, view)
			if len(fs) != len(vs) {
				t.Fatalf("%d statistics on the view, %d on the full snapshot", len(vs), len(fs))
			}
			for i := range fs {
				same("array statistic", fs[i], vs[i])
			}
			if fa.NumUsers() != va.NumUsers() || fa.NumUsers() == 0 {
				t.Fatalf("NumUsers: view %d, full snapshot %d", va.NumUsers(), fa.NumUsers())
			}
			fu, vu := usersOf(fa), usersOf(va)
			if len(fu) != len(vu) {
				t.Fatalf("Users: view enumerated %d, full snapshot %d", len(vu), len(fu))
			}
			for i := range fu {
				if fu[i].user != vu[i].user {
					t.Fatalf("Users[%d]: view user %d, full snapshot user %d", i, vu[i].user, fu[i].user)
				}
				same("Users estimate", fu[i].est, vu[i].est)
				same("Estimate", full.Estimate(fu[i].user), view.Estimate(fu[i].user))
			}
			same("Estimate of an unseen user", full.Estimate(1<<60), view.Estimate(1<<60))

			type marshaler interface{ MarshalBinary() ([]byte, error) }
			if _, err := view.(marshaler).MarshalBinary(); err == nil {
				t.Fatal("MarshalBinary of an estimates-only view succeeded")
			}
			if _, err := full.(marshaler).MarshalBinary(); err != nil {
				t.Fatalf("MarshalBinary of the full snapshot: %v", err)
			}
			if err := merge(view); !errors.Is(err, ErrIncompatible) {
				t.Fatalf("Merge from an estimates-only view: want ErrIncompatible, got %v", err)
			}
			if err := merge(full); err != nil {
				t.Fatalf("Merge from the full snapshot: %v", err)
			}
		})
	}
}
