package core

import (
	"testing"

	"repro/internal/bitarray"
	"repro/internal/hashing"
	"repro/internal/regarray"
)

// mapTwin replays a sketch's update rule, with the pre-update q of
// Theorems 1 and 2, on a private copy of the shared array, and keeps the
// per-user estimates in the map[uint64]float64 that the flat table
// (internal/usertab) replaced.
type mapTwin struct {
	est   map[uint64]float64
	total float64
	// credit applies one edge to the twin's array and returns the
	// increment 1/q it earns, or 0 when the edge changes nothing.
	credit func(user, item uint64) float64
}

func (m *mapTwin) observe(user, item uint64) {
	if inc := m.credit(user, item); inc != 0 {
		m.est[user] += inc
		m.total += inc
	}
}

// freeBSTwin uses f's own seed, so it hashes every pair exactly as f does.
func freeBSTwin(f *FreeBS) *mapTwin {
	bits := bitarray.New(f.M())
	return &mapTwin{est: map[uint64]float64{}, credit: func(user, item uint64) float64 {
		idx := hashing.UniformIndex(hashing.HashPair(user, item, f.seed), bits.Size())
		m0 := bits.ZeroCount()
		if !bits.Set(idx) {
			return 0
		}
		return float64(bits.Size()) / float64(m0)
	}}
}

// freeRSTwin uses f's own index and rank seeds.
func freeRSTwin(f *FreeRS) *mapTwin {
	regs := regarray.New(f.regs.Size(), f.width)
	return &mapTwin{est: map[uint64]float64{}, credit: func(user, item uint64) float64 {
		idx := hashing.UniformIndex(hashing.HashPair(user, item, f.seedIdx), regs.Size())
		rank := hashing.Rho(hashing.HashPair(user, item, f.seedRank), regs.MaxValue())
		q := regs.ChangeProbability()
		if _, changed := regs.UpdateMax(idx, rank); !changed {
			return 0
		}
		return 1 / q
	}}
}

// TestFlatTableMatchesMapTwin: FreeBS and FreeRS, fed through ObserveBatch
// in 1,024-edge chunks, end bit-identical to their map twins fed edge by
// edge: the same user count, the same total and the same estimate for
// every user. The flat table changes where estimates live, never what they
// are.
func TestFlatTableMatchesMapTwin(t *testing.T) {
	checkMapTwins(t, burstEdges(400_000, 50_000, 16, 5), 1<<20, 1024)
}

// TestMapTwinMatchesCore repeats the cross-check in a second shape: 30,000
// edges over 2,000 users into 2^16 bits, in 512-edge chunks, so each user's
// estimate gathers credits from many chunks.
func TestMapTwinMatchesCore(t *testing.T) {
	checkMapTwins(t, burstEdges(30_000, 2_000, 16, 9), 1<<16, 512)
}

// checkMapTwins feeds edges to FreeBS and FreeRS of mbits bits through
// ObserveBatch in chunks of chunk edges, and to their map twins edge by
// edge, and fails unless both end bit-identical.
func checkMapTwins(t *testing.T, edges []Edge, mbits, chunk int) {
	t.Helper()
	bs := NewFreeBS(mbits, 7)
	rs := NewFreeRS(mbits/DefaultRegisterWidth, 7)
	for _, tc := range []struct {
		name   string
		sketch interface {
			ObserveBatch([]Edge)
			NumUsers() int
			TotalDistinct() float64
			Estimate(user uint64) float64
		}
		twin *mapTwin
	}{
		{"FreeBS", bs, freeBSTwin(bs)},
		{"FreeRS", rs, freeRSTwin(rs)},
	} {
		for i := 0; i < len(edges); i += chunk {
			tc.sketch.ObserveBatch(edges[i:min(i+chunk, len(edges))])
		}
		for _, e := range edges {
			tc.twin.observe(e.User, e.Item)
		}
		if got, want := tc.sketch.NumUsers(), len(tc.twin.est); got != want || got == 0 {
			t.Fatalf("%s: %d users, map twin %d", tc.name, got, want)
		}
		if got, want := tc.sketch.TotalDistinct(), tc.twin.total; got != want {
			t.Fatalf("%s: total %v, map twin %v", tc.name, got, want)
		}
		for u, want := range tc.twin.est {
			if got := tc.sketch.Estimate(u); got != want {
				t.Fatalf("%s: user %d estimate %v, map twin %v", tc.name, u, got, want)
			}
		}
	}
}
