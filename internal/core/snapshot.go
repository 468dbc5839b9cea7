package core

import (
	"repro/internal/bitarray"
	"repro/internal/regarray"
	"repro/internal/usertab"
)

// Snapshots are the read side of the serving architecture: a logically
// frozen fork of a sketch, taken under whatever lock guards the writer,
// then read with no lock held at all.
//
// SnapshotEstimates is the O(1) estimates-only fork a served view
// publishes on every write. It shares the per-user table copy-on-write and
// carries a words-less statistics copy of the array (bitarray/regarray
// Stats), so publication costs no array copy at all. Every estimate read —
// Estimate, TotalDistinct, TotalDistinctLPC/HLL, ChangeProbability,
// Saturated, NumUsers, Users, RangeUsers — equals the live sketch's bit
// for bit at the instant of the fork, since those read only the table and
// the array's maintained statistics. What needs the words fails loudly
// instead of reading an empty array: MarshalBinary returns an error, Merge
// with the view on either side reports ErrIncompatible, and Clone panics.
// Readers of array words (checkpoints, merged totals) take a Clone.

// SnapshotEstimates returns an O(1) estimates-only fork of f: the per-user
// table shared copy-on-write and the bit array's statistics without its
// words. See the file comment for what it serves and what it refuses. The
// call must be serialized with writers (take it under the lock that guards
// Observe); reads of the fork then need no synchronization.
func (f *FreeBS) SnapshotEstimates() *FreeBS { return f.fork(f.bits.Stats(), f.est.Snapshot()) }

// fork returns a copy of f holding bits and est in place of its own: the
// one constructor behind SnapshotEstimates and Clone, which differ only in
// how they copy the two.
func (f *FreeBS) fork(bits *bitarray.BitArray, est *usertab.Table) *FreeBS {
	c := *f
	c.bits, c.est = bits, est
	return &c
}

// SnapshotEstimates returns an O(1) estimates-only fork of f; see
// FreeBS.SnapshotEstimates.
func (f *FreeRS) SnapshotEstimates() *FreeRS { return f.fork(f.regs.Stats(), f.est.Snapshot()) }

// fork returns a copy of f holding regs and est in place of its own; see
// FreeBS.fork.
func (f *FreeRS) fork(regs *regarray.Array, est *usertab.Table) *FreeRS {
	c := *f
	c.regs, c.est = regs, est
	return &c
}
