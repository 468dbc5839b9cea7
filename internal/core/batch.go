package core

import (
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Edge is the user-item pair type shared by all batch ingestion paths. It is
// an alias of stream.Edge so workload generators, the stream codec, and the
// sketches exchange slices without conversion or copying.
type Edge = stream.Edge

// ObserveBatch processes edges exactly as a sequence of Observe calls would —
// per-user estimates, totals, and the shared array end bit-identical — while
// amortizing per-edge overhead over runs of consecutive edges that share a
// user (the shape bursty network traces have):
//
//   - the user half of the pair hash is computed once per run, not per edge
//     (hashing.HashPairPrefix);
//   - the user's running estimate cell is located in the table once per run
//     (openRun), accumulated in a register, and written back through the
//     same pointer (closeRun) — no second probe. Only a run that credits a
//     previously unseen user pays an insertion.
//
// The within-batch edge order is preserved, which matters: each flip's credit
// M/m0 depends on the zero count at that moment.
func (f *FreeBS) ObserveBatch(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	f.edges += uint64(len(edges))
	size := f.bits.Size()
	stream.ForEachRun(edges, func(user uint64, run []Edge) {
		prefix := hashing.HashPairPrefix(user)
		ref, e := f.openRun(user)
		credited := false
		for _, ed := range run {
			idx := hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, f.seed), size)
			m0 := f.bits.ZeroCount()
			if !f.bits.Set(idx) {
				continue
			}
			inc := flipCredit(size, m0, f.postUpdateQ)
			e += inc
			f.total += inc
			credited = true
		}
		f.closeRun(user, ref, e, credited)
	})
}

// ObserveBatch processes edges exactly as a sequence of Observe calls would;
// see FreeBS.ObserveBatch for the hoisting scheme. The single user-hash
// prefix feeds both the index hash and the rank hash (they differ only in
// the seed folded in by HashPairFinish).
func (f *FreeRS) ObserveBatch(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	f.edges += uint64(len(edges))
	size := f.regs.Size()
	maxVal := f.regs.MaxValue()
	stream.ForEachRun(edges, func(user uint64, run []Edge) {
		prefix := hashing.HashPairPrefix(user)
		ref, e := f.openRun(user)
		credited := false
		for _, ed := range run {
			idx := hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, f.seedIdx), size)
			rank := hashing.Rho(hashing.HashPairFinish(prefix, ed.Item, f.seedRank), maxVal)
			q := f.regs.ChangeProbability()
			if _, changed := f.regs.UpdateMax(idx, rank); !changed {
				continue
			}
			if f.postUpdateQ {
				q = f.regs.ChangeProbability()
			}
			inc := 1 / q
			e += inc
			f.total += inc
			credited = true
		}
		f.closeRun(user, ref, e, credited)
	})
}
