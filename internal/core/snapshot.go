package core

import (
	"repro/internal/bitarray"
	"repro/internal/regarray"
	"repro/internal/usertab"
)

// Snapshots are the read side of the serving architecture: an O(1)
// logically frozen fork of a sketch, taken under whatever lock guards the
// writer, then read with no lock held at all. There are two kinds.
//
// Snapshot is the full fork. The backing arrays (the shared bit/register
// array and the per-user estimate table) are shared copy-on-write: the
// snapshot costs a few struct allocations regardless of M or the user
// count, and the writer pays one copy of each array it next writes. A full
// snapshot is a complete FreeBS/FreeRS value: every read method —
// Estimate, TotalDistinct, TotalDistinctLPC/HLL, NumUsers, Users,
// RangeUsers, MarshalBinary, Clone, Merge sources — behaves exactly as it
// would on an eager Clone taken at the same instant, and the determinism
// contracts (sorted enumeration, serialize-to-equal-bytes) carry over
// unchanged. Checkpoints and merged totals need it, because they read the
// array words.
//
// SnapshotEstimates is the estimates-only fork a served view publishes on
// every write. It shares the per-user table copy-on-write and carries a
// words-less statistics copy of the array (bitarray/regarray Stats), so the
// writer's next array write stays in place: publication no longer costs an
// M-sized copy per batch. Every estimate read — Estimate, TotalDistinct,
// TotalDistinctLPC/HLL, ChangeProbability, Saturated, NumUsers, Users,
// RangeUsers — equals the full snapshot's bit for bit, since those read
// only the table and the array's maintained statistics. What needs the
// words fails loudly instead of reading an empty array: MarshalBinary
// returns an error, Merge with the view on either side reports
// ErrIncompatible, and Clone panics.
//
// Mutating a full snapshot is permitted (it detaches, leaving the parent
// untouched); an estimates-only one has no array to write. The serving
// layers treat both as read-only.

// Snapshot returns an O(1) copy-on-write fork of f, logically frozen at the
// current state. See the file comment for the cost model and the
// concurrency contract: the call itself must be serialized with writers
// (take it under the lock that guards Observe), after which reads of the
// snapshot need no synchronization.
func (f *FreeBS) Snapshot() *FreeBS { return f.fork(f.bits.Snapshot(), f.est.Snapshot()) }

// SnapshotEstimates returns an O(1) estimates-only fork of f: the per-user
// table shared copy-on-write and the bit array's statistics without its
// words. See the file comment for what it serves and what it refuses. The
// same serialization rule as Snapshot applies.
func (f *FreeBS) SnapshotEstimates() *FreeBS { return f.fork(f.bits.Stats(), f.est.Snapshot()) }

// fork returns a copy of f holding bits and est in place of its own: the
// one constructor behind Snapshot, SnapshotEstimates and Clone, which
// differ only in how they copy the two.
func (f *FreeBS) fork(bits *bitarray.BitArray, est *usertab.Table) *FreeBS {
	c := *f
	c.bits, c.est = bits, est
	return &c
}

// Snapshot returns an O(1) copy-on-write fork of f; see FreeBS.Snapshot.
func (f *FreeRS) Snapshot() *FreeRS { return f.fork(f.regs.Snapshot(), f.est.Snapshot()) }

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
