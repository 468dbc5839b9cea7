package core

import (
	"errors"
	"fmt"
)

// Merging lets independently fed sketches — per-shard, per-node, per-epoch —
// be combined into one sketch of the union stream, the capability that turns
// a single-machine monitor into a fleet (each vantage point keeps its own
// FreeBS/FreeRS and a coordinator merges them on demand, the way time-series
// databases merge per-shard cardinality sketches for a database-wide count).
//
// Two layers of state merge differently:
//
//   - The shared array is a pure function of the SET of distinct pairs it has
//     absorbed (Set and UpdateMax are idempotent and order-free), so bitwise
//     OR / register-wise max reproduces, bit for bit, the array a single
//     sketch fed the union stream would hold. Everything derived from the
//     array alone — TotalDistinctLPC, TotalDistinctHLL, ChangeProbability,
//     Saturated — is therefore exact after a merge.
//
//   - The per-user running estimates are trajectory-dependent (each counted
//     pair was credited 1/q with q read at its own arrival instant), so they
//     are reconciled through the paper's update rule: other's credits are
//     re-issued as if its counted pairs had arrived after everything already
//     in the receiver. For FreeBS the re-crediting is exact in the rule's
//     own terms, because every counted pair decrements the zero count by
//     exactly one — the merged array pins down the credit of each additional
//     flip as M/m0 along the only possible trajectory. For FreeRS the q_R
//     trajectory between two register states is not recoverable, so the
//     re-crediting scale comes from the array-derived HLL totals instead.
//
// Merging requires identical construction (size, width, seeds, update-order
// option): sketches built with different seeds place the same pair at
// different cells and their union means nothing.

// ErrIncompatible is returned (wrapped) by Merge when the two sketches were
// not built with identical parameters, when a sketch is merged into itself,
// or when either side is an estimates-only view (SnapshotEstimates), whose
// array holds no words to union.
var ErrIncompatible = errors.New("sketches not mergeable")

// Clone returns a deep copy of f: mutating either sketch never affects the
// other. Non-destructive aggregation clones one shard and merges the rest in.
// The estimate table is copied cell for cell, layout included.
func (f *FreeBS) Clone() *FreeBS { return f.fork(f.bits.Clone(), f.est.Clone()) }

// Merge folds other into f so that f summarizes the union of both input
// streams. The shared bit array becomes the bitwise OR of the two arrays —
// bit-identical to the array of a single FreeBS fed both streams — and
// other's per-user estimates are re-credited through the paper's update rule
// (see the package comment above): if f held k_f set bits and the union holds
// k_u, other's users share credit Σ_{k=k_f+1}^{k_u} M/(M-k+1) in proportion
// to their standalone estimates. Overlap is thereby handled: pairs counted by
// both sketches set no new bits and add no new credit. other is not modified.
func (f *FreeBS) Merge(other *FreeBS) error {
	if other == nil {
		return fmt.Errorf("core: FreeBS.Merge(nil): %w", ErrIncompatible)
	}
	if other == f {
		return fmt.Errorf("core: FreeBS.Merge with itself: %w", ErrIncompatible)
	}
	if !f.bits.HasWords() || !other.bits.HasWords() {
		return fmt.Errorf("core: FreeBS.Merge of an estimates-only view: %w", ErrIncompatible)
	}
	if other.bits.Size() != f.bits.Size() {
		return fmt.Errorf("core: FreeBS sizes %d vs %d: %w", f.bits.Size(), other.bits.Size(), ErrIncompatible)
	}
	if other.seed != f.seed {
		return fmt.Errorf("core: FreeBS seeds differ: %w", ErrIncompatible)
	}
	if other.postUpdateQ != f.postUpdateQ {
		return fmt.Errorf("core: FreeBS update-order options differ: %w", ErrIncompatible)
	}
	kF := f.bits.OnesCount()
	kOther := other.bits.OnesCount()
	if err := f.bits.UnionWith(other.bits); err != nil {
		return err
	}
	kU := f.bits.OnesCount()
	f.edges += other.edges
	if kOther == 0 || other.est.Len() == 0 {
		return nil
	}
	f.reconcile(other.est, harmonicCredit(f.bits.Size(), kF, kU, f.postUpdateQ)/
		harmonicCredit(f.bits.Size(), 0, kOther, f.postUpdateQ))
	return nil
}

// harmonicCredit returns the total credit the update rule issues for flips
// number from+1 through to of an M-bit array. Flip number k happens against
// m0 = M-k+1 remaining zeros, so it credits flipCredit(M, M-k+1) — the same
// rule, WithPostUpdateQ clamp included, that issued the credits being
// rescaled, or merged totals would drift off the union sketch's.
func harmonicCredit(m, from, to int, postUpdate bool) float64 {
	s := 0.0
	for k := from + 1; k <= to; k++ {
		s += flipCredit(m, m-k+1, postUpdate)
	}
	return s
}

// Clone returns a deep copy of f; see FreeBS.Clone.
func (f *FreeRS) Clone() *FreeRS { return f.fork(f.regs.Clone(), f.est.Clone()) }

// Merge folds other into f so that f summarizes the union of both input
// streams. The shared register array becomes the register-wise max of the two
// arrays — bit-identical to the array of a single FreeRS fed both streams —
// and other's per-user estimates are re-credited as if its counted pairs had
// arrived after f's: the register-state trajectory between two FreeRS states
// is not recoverable (unlike FreeBS, where each flip steps the zero count by
// one), so the scale is the array-implied cardinality gain
// (HLL(union) - HLL(f)) / HLL(other), clamped to be non-negative. Overlap is
// handled the same way: shared pairs raise no registers and add no credit.
// other is not modified.
func (f *FreeRS) Merge(other *FreeRS) error {
	if other == nil {
		return fmt.Errorf("core: FreeRS.Merge(nil): %w", ErrIncompatible)
	}
	if other == f {
		return fmt.Errorf("core: FreeRS.Merge with itself: %w", ErrIncompatible)
	}
	if !f.regs.HasWords() || !other.regs.HasWords() {
		return fmt.Errorf("core: FreeRS.Merge of an estimates-only view: %w", ErrIncompatible)
	}
	if other.regs.Size() != f.regs.Size() || other.width != f.width {
		return fmt.Errorf("core: FreeRS layouts %d×w%d vs %d×w%d: %w",
			f.regs.Size(), f.width, other.regs.Size(), other.width, ErrIncompatible)
	}
	if other.seedIdx != f.seedIdx || other.seedRank != f.seedRank {
		return fmt.Errorf("core: FreeRS seeds differ: %w", ErrIncompatible)
	}
	if other.postUpdateQ != f.postUpdateQ {
		return fmt.Errorf("core: FreeRS update-order options differ: %w", ErrIncompatible)
	}
	tF := f.TotalDistinctHLL()
	tOther := other.TotalDistinctHLL()
	if err := f.regs.UnionWith(other.regs); err != nil {
		return err
	}
	tU := f.TotalDistinctHLL()
	f.edges += other.edges
	if other.est.Len() == 0 || tOther <= 0 {
		return nil
	}
	f.reconcile(other.est, (tU-tF)/tOther)
	return nil
}
