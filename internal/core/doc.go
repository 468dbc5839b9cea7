// Package core implements the paper's two contributions:
//
//   - FreeBS (§IV-A, Algorithm 1): parameter-free bit sharing. All users
//     share one bit array B of M bits; each user-item pair e = (s, d) is
//     hashed by h*(e) to a single bit. When that bit flips 0→1, user s's
//     running estimate is credited with 1/q_B, where q_B = m0/M is the
//     fraction of zero bits *before* the flip — the probability that a new
//     pair changes the array. This is a Horvitz–Thompson estimator over the
//     first-occurrence times of s's pairs, so it is unbiased (Theorem 1).
//
//   - FreeRS (§IV-B, Algorithm 2): parameter-free register sharing. All
//     users share M registers; each pair is hashed to a register index h*(e)
//     and a geometric rank ρ*(e). When the register grows, s is credited
//     with 1/q_R, where q_R = Σ_j 2^-R[j] / M is the probability that a new
//     pair changes some register (Theorem 2).
//
// Both process an edge in O(1): q_B is the maintained zero count over M, and
// q_R is the maintained exact scaled harmonic sum over M (see
// internal/regarray). Estimates are therefore available at any time t with
// no per-query work — the anytime property the paper contrasts with the
// O(m)-per-query CSE and vHLL.
//
// # One sketch, two arrays
//
// The two methods are one update rule over two shared structures, and the
// code shares it the same way. Both types embed sketch, which holds the
// per-user estimate table, the running total, the edge count and the
// update-order option, and implements once everything that touches them:
// the estimate accessors, the credit a counted pair earns, the batch
// kernels' per-run cell lookup and write-back, merge reconciliation, Reset,
// and the tail of the checkpoint envelope both formats share. Each type
// adds only its array, its seeds, its change test and its q. The two
// ObserveBatch kernels stay concrete, so no interface call is made per
// edge; the shared helpers inline into both.
//
// # Update-order ablation
//
// The paper's Algorithm 2 pseudocode updates q_R before crediting 1/q_R,
// while the Theorem 2 analysis conditions on the state *before* the edge
// (and Algorithm 1 uses the pre-update m0). The analysis order is the
// default here; WithPostUpdateQ switches to the literal pseudocode order so
// the (small, negative) bias it introduces can be measured.
//
// # Memory model
//
// Estimator state splits into the sketch proper and per-user bookkeeping:
//
//   - The sketch is the shared array (M bits / M registers), fixed at
//     construction; MemoryBits reports it, and it is the only memory the
//     paper's comparison budgets (§V-B grants every method one counter per
//     user on top).
//
//   - The per-user running estimates — the anytime property's cost, one
//     float64 per observed user — live in a flat open-addressing table
//     (internal/usertab; PerUserBytes reports its exact footprint): 16
//     bytes per slot in two pointer-free parallel slices, Robin Hood
//     probing at up to 31/32 occupancy, no tombstones because users are
//     never deleted individually (Reset discards wholesale). At 1M users
//     that measured ~17 bytes/user resident versus ~37 for the
//     map[uint64]float64 it replaced, when the store was introduced, with
//     nothing for the garbage collector to trace.
//     The map-twin tests in maptwin_test.go keep the two stores
//     bit-identical.
//
// The table also fixes enumeration semantics: Users (and the serialized
// estimate section, envelope version 2) is key-sorted — equal logical
// states yield equal bytes regardless of history — while RangeUsers is the
// unordered allocation-free scan the aggregation paths use.
package core
