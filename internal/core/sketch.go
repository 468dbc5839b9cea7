package core

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/usertab"
)

// sketch is the state and behaviour FreeBS and FreeRS share; both embed
// it (see the package comment, "One sketch, two arrays").
type sketch struct {
	est         *usertab.Table
	total       float64
	edges       uint64 // edges processed (including duplicates)
	postUpdateQ bool
}

// Estimate returns the anytime cardinality estimate n̂_s for user (0 if no
// pair of the user has changed the array yet). O(1).
func (s *sketch) Estimate(user uint64) float64 { return s.est.Get(user) }

// TotalDistinct returns Σ_s n̂_s, the Horvitz–Thompson estimate of the total
// number of distinct pairs n^(t). It equals the sum of per-user estimates by
// construction.
func (s *sketch) TotalDistinct() float64 { return s.total }

// EdgesProcessed returns the number of edges observed (duplicates
// included).
func (s *sketch) EdgesProcessed() uint64 { return s.edges }

// NumUsers returns the number of users with a nonzero estimate. O(1).
func (s *sketch) NumUsers() int { return s.est.Len() }

// Users calls fn for every user with a nonzero estimate, in ascending user
// order — deterministic for equal logical states no matter how they were
// reached (ingested, merged, cloned, or restored). Sorting costs
// O(users log users) and one key-slice allocation; order-insensitive
// consumers use RangeUsers.
func (s *sketch) Users(fn func(user uint64, estimate float64)) { s.est.SortedRange(fn) }

// RangeUsers calls fn for every user with a nonzero estimate in the
// estimate table's layout order: allocation-free and O(users), but the
// order, while deterministic for a given history, is not sorted and not
// preserved across checkpoint/restore. The fan-in paths (top-k, windowed
// sums, shard aggregation) use this.
func (s *sketch) RangeUsers(fn func(user uint64, estimate float64)) { s.est.Range(fn) }

// PerUserBytes returns the exact memory held by the per-user estimate
// table, in bytes — the bookkeeping the paper's accounting grants every
// method (§V-B) but which this implementation also engineers flat; see
// internal/usertab.
func (s *sketch) PerUserBytes() int64 { return s.est.MemoryBytes() }

// credit issues one counted pair's credit to user and to the running total.
func (s *sketch) credit(user uint64, inc float64) {
	s.est.Add(user, inc)
	s.total += inc
}

// openRun starts a batch run of user's edges: it locates the user's
// estimate cell once (nil for a user not yet in the table) and returns it
// with the running value the run accumulates into. No table mutation
// happens between openRun and closeRun (other users' cells are untouched
// during the run), so growth cannot invalidate the cell pointer.
func (s *sketch) openRun(user uint64) (ref *float64, e float64) {
	ref = s.est.Ref(user)
	if ref != nil {
		e = *ref
	}
	return ref, e
}

// closeRun writes a credited run's value back through the cell openRun
// found, or inserts it for a user the run saw first.
func (s *sketch) closeRun(user uint64, ref *float64, e float64, credited bool) {
	if !credited {
		return
	}
	if ref != nil {
		*ref = e
	} else {
		s.est.Add(user, e)
	}
}

// reconcile folds a scaled copy of another sketch's per-user credits
// directly into s's estimate table — no intermediate map is rebuilt —
// keeping the TotalDistinct = Σ estimates invariant exact. A scale of zero
// or less (full overlap, or FreeRS estimator noise on a low-novelty merge)
// re-issues no credit: adding 0 would seed zero-valued entries, and the
// table holds only users with a nonzero estimate. Iteration is key-sorted,
// not layout-order: s.total accumulates in float, so the summation order
// must be a function of the logical state alone or merging a
// checkpoint-restored sketch (whose table layout is rebuilt key-sorted)
// would drift from merging its never-restored twin in the low bits —
// exactly the divergence the restore-lockstep contract forbids.
func (s *sketch) reconcile(est *usertab.Table, scale float64) {
	if scale <= 0 {
		return
	}
	est.SortedRange(func(u uint64, e float64) { s.credit(u, e*scale) })
}

// reset discards every estimate and zeroes the running counters; the
// caller resets its array.
func (s *sketch) reset() {
	s.est.Reset()
	s.total = 0
	s.edges = 0
}

// appendTail writes the envelope tail both formats share: edges, total,
// the array's own binary form (length-prefixed), then the estimates.
func (s *sketch) appendTail(out, arr []byte) []byte {
	out = binary.LittleEndian.AppendUint64(out, s.edges)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.total))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(arr)))
	out = append(out, arr...)
	return appendEstimates(out, s.est)
}

// readTail decodes an appendTail section: the array into arr, a fresh
// array of the caller's, and the rest into the returned sketch. The caller
// installs nothing before readTail and its own checks succeed, so a
// rejected payload leaves its receiver untouched.
func readTail(body []byte, name string, arr encoding.BinaryUnmarshaler) (sketch, error) {
	if len(body) < 8+8+8 {
		return sketch{}, fmt.Errorf("core: %s payload truncated", name)
	}
	edges := binary.LittleEndian.Uint64(body)
	total := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	arrLen := int(binary.LittleEndian.Uint64(body[16:]))
	body = body[24:]
	if arrLen < 0 || arrLen > len(body) {
		return sketch{}, fmt.Errorf("core: %s array length out of bounds", name)
	}
	if err := arr.UnmarshalBinary(body[:arrLen]); err != nil {
		return sketch{}, fmt.Errorf("core: %s array: %w", name, err)
	}
	est, err := readEstimates(body[arrLen:])
	if err != nil {
		return sketch{}, err
	}
	return sketch{est: est, total: total, edges: edges}, nil
}
