// Package streamcard estimates per-user cardinalities over graph streams —
// the number of distinct items each user connects to, available at any
// moment while edges keep arriving.
//
// It is a from-scratch Go implementation of "Utilizing Dynamic Properties of
// Sharing Bits and Registers to Estimate User Cardinalities over Time"
// (Wang, Jia, Zhang, Tao, Guan, Towsley — ICDE 2019). The paper's two
// algorithms are the headline API:
//
//   - FreeBS — parameter-free bit sharing. One shared bit array; O(1) per
//     edge; unbiased anytime estimates; range up to M·ln M.
//   - FreeRS — parameter-free register sharing. One shared register array;
//     O(1) per edge; unbiased anytime estimates; range up to ~2^32.
//
// The baselines the paper compares against are included as full
// implementations under the same interface: CSE and vHLL (shared-array
// virtual sketches) and per-user LPC and HyperLogLog++ sketches.
//
// # Quick start
//
//	est := streamcard.NewFreeRS(1 << 20) // one million bits of sketch memory
//	for _, e := range edges {
//	    est.Observe(e.User, e.Item)
//	}
//	fmt.Println(est.Estimate(someUser), est.TotalDistinct())
//
// Estimates are available after every single Observe — there is no
// end-of-stream finalization step.
//
// String identifiers can be hashed into the uint64 key space with Key.
package streamcard

import (
	"encoding"
	"fmt"

	"repro/internal/core"
	"repro/internal/cse"
	"repro/internal/hashing"
	"repro/internal/hll"
	"repro/internal/lpc"
	"repro/internal/stream"
	"repro/internal/superspreader"
	"repro/internal/vhll"
)

// Edge is one user-item pair. It aliases the internal stream type, so edge
// slices produced by the stream codec and workload generators feed
// ObserveBatch without conversion.
type Edge = stream.Edge

// ErrIncompatible is reported (wrapped) by Merge and TotalDistinctMerged when
// sketches were not built with identical parameters (size, seed, options) —
// such sketches place the same pair at different cells, so their union is
// meaningless.
var ErrIncompatible = core.ErrIncompatible

// Estimator is the common interface of all six methods: feed user-item
// edges, query any user's cardinality estimate at any time.
type Estimator interface {
	// Observe processes one edge (user, item). Duplicate edges are handled
	// by construction: re-observing a pair never inflates estimates.
	Observe(user, item uint64)
	// ObserveBatch processes a slice of edges with exactly the semantics of
	// calling Observe on each in order — estimates afterwards are
	// bit-identical — while amortizing per-edge overhead (pair-hash
	// prefixes, estimate-map access, shard locks) over runs of consecutive
	// edges that share a user. Feed bursty traffic in arrival order to
	// benefit; pre-grouping by user is unnecessary and would change
	// nothing but the amortization.
	ObserveBatch(edges []Edge)
	// Estimate returns the current cardinality estimate for user; 0 for
	// users that have not been observed.
	Estimate(user uint64) float64
	// TotalDistinct estimates the total number of distinct (user, item)
	// pairs observed so far.
	TotalDistinct() float64
	// MemoryBits reports the sketch memory in use, in bits (per-user
	// bookkeeping such as estimate counters excluded).
	MemoryBits() int64
	// Name returns the method's name as the paper spells it.
	Name() string
}

// AnytimeEstimator is implemented by FreeBS and FreeRS, which additionally
// maintain every user's running estimate and can therefore enumerate users
// in O(users) with no per-user query cost.
type AnytimeEstimator interface {
	Estimator
	// Users calls fn for every user with a nonzero estimate, in ascending
	// user order — the deterministic enumeration: equal logical states
	// (however reached: ingestion, Merge, Clone, checkpoint/restore)
	// enumerate identically. Sorting costs O(users log users); consumers
	// that do not need the order should prefer UserRanger.RangeUsers.
	Users(fn func(user uint64, estimate float64))
	// NumUsers returns the number of users with nonzero estimates, in O(1)
	// for FreeBS/FreeRS (O(users) for Windowed, which must merge
	// generations).
	NumUsers() int
}

// UserRanger is the unordered counterpart of AnytimeEstimator's Users: fn
// is called once per user with a nonzero estimate, in the estimate table's
// layout order — allocation-free and without Users' sort. The order is
// deterministic for a given operation history but is NOT sorted and NOT
// stable across checkpoint/restore, so it is for aggregations that treat
// each user independently (top-k selection, windowed sums, shard fan-ins),
// not for output that must be reproducible across restarts. All estimators
// implementing AnytimeEstimator here (FreeBS, FreeRS, Windowed, Sharded)
// also implement UserRanger.
type UserRanger interface {
	RangeUsers(fn func(user uint64, estimate float64))
}

// rangeUsers iterates est's users through the cheapest surface it offers:
// RangeUsers when implemented, sorted Users otherwise.
func rangeUsers(est AnytimeEstimator, fn func(user uint64, estimate float64)) {
	if r, ok := est.(UserRanger); ok {
		r.RangeUsers(fn)
		return
	}
	est.Users(fn)
}

// layer is the one contract the serving stack holds its sketches by.
// FreeBS, FreeRS and Windowed (over either) implement it, so a Windowed
// generation, a Sharded shard and a ShardedView slot are each a layer, and
// the stack reaches them through these methods instead of switching on
// their types. The two forks are O(1) and must be serialized with writers
// (callers take them under the lock that guards Observe); reads of a fork
// are then lock-free. view is the estimates-only fork the read path
// publishes: its estimate reads equal a full fork's bit for bit, but it
// has no array words, so MarshalBinary errors, merge from it reports
// ErrIncompatible and clone panics. cut is the full copy-on-write fork
// that checkpoints and merged totals read.
type layer interface {
	AnytimeEstimator
	UserRanger
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	// view returns the estimates-only fork, never nil.
	view() layer
	// cut returns the full copy-on-write fork, never nil.
	cut() layer
	// clone returns an independent deep copy.
	clone() layer
	// merge folds other into the receiver. other must be the same type
	// built with identical parameters; otherwise merge reports
	// ErrIncompatible.
	merge(other layer) error
}

// Key hashes an arbitrary string identifier (an IP address, a URL, a user
// handle) into the uint64 key space used by Observe.
func Key(s string) uint64 { return hashing.Hash64([]byte(s), 0x5eed) }

// Option configures an estimator constructor.
type Option func(*options)

type options struct {
	seed uint64
}

// WithSeed sets the hash seed (default 1). Estimators with equal seeds are
// deterministic replicas; independent runs should use distinct seeds.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// registerFloor is the minimum shared-array size, in registers, accepted by
// the register-sharing constructors (NewFreeRS, NewVHLL). The floor is 2
// because both methods' estimators are undefined on a single register —
// FreeRS's HLL view needs a harmonic mean over M ≥ 2 registers and vHLL's
// noise-removal term divides by M−m ≥ 1 — and a memory budget below even one
// register holds no sketch state at all. Sub-floor budgets are a
// configuration bug, not a degraded mode, so the constructors panic instead
// of silently rounding up.
const registerFloor = 2

// registerCount converts a memory budget in bits into a register count for
// the given register width, panicking on budgets below the floor.
func registerCount(memoryBits, width int, constructor string) int {
	regs := memoryBits / width
	if regs < registerFloor {
		panic(fmt.Sprintf("streamcard: %s needs at least %d bits of memory (%d registers of %d bits); got %d",
			constructor, registerFloor*width, registerFloor, width, memoryBits))
	}
	return regs
}

// ---- FreeBS ----

// FreeBS wraps core.FreeBS behind the Estimator interface.
type FreeBS struct{ inner *core.FreeBS }

// NewFreeBS returns a FreeBS estimator with memoryBits bits of shared sketch
// memory — the method's only parameter.
func NewFreeBS(memoryBits int, opts ...Option) *FreeBS {
	o := buildOptions(opts)
	return &FreeBS{inner: core.NewFreeBS(memoryBits, o.seed)}
}

// Observe implements Estimator.
func (f *FreeBS) Observe(user, item uint64) { f.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (f *FreeBS) ObserveBatch(edges []Edge) { f.inner.ObserveBatch(edges) }

// Merge folds other into f so that f summarizes the union of both input
// streams; other is unchanged. Both sketches must have been built with the
// same memory size and seed (ErrIncompatible otherwise). The shared bit
// array unions exactly — bit-identical to a single sketch fed both streams,
// so TotalDistinct is exact after a merge — and per-user running estimates
// are reconciled through the paper's update rule (see internal/core).
func (f *FreeBS) Merge(other *FreeBS) error {
	if other == nil {
		return fmt.Errorf("streamcard: FreeBS.Merge(nil): %w", ErrIncompatible)
	}
	return f.inner.Merge(other.inner)
}

// Clone returns an independent deep copy of f.
func (f *FreeBS) Clone() *FreeBS { return &FreeBS{inner: f.inner.Clone()} }

// Snapshot returns an O(1) copy-on-write fork of f, logically frozen at the
// current state: every read on it (estimates, totals, Users, TopK,
// checkpointing) behaves exactly like a deep Clone taken at the same
// instant, but nothing is copied until the parent's next write touches a
// shared array. Serialize the call with writers; reads of the snapshot are
// then lock-free.
func (f *FreeBS) Snapshot() *FreeBS { return &FreeBS{inner: f.inner.Snapshot()} }

// Estimate implements Estimator.
func (f *FreeBS) Estimate(user uint64) float64 { return f.inner.Estimate(user) }

// TotalDistinct implements Estimator using the low-variance global
// linear-counting view of the shared array.
func (f *FreeBS) TotalDistinct() float64 { return f.inner.TotalDistinctLPC() }

// MemoryBits implements Estimator.
func (f *FreeBS) MemoryBits() int64 { return f.inner.MemoryBits() }

// Name implements Estimator.
func (f *FreeBS) Name() string { return "FreeBS" }

// Users implements AnytimeEstimator (ascending user order).
func (f *FreeBS) Users(fn func(uint64, float64)) { f.inner.Users(fn) }

// RangeUsers implements UserRanger (layout order, allocation-free).
func (f *FreeBS) RangeUsers(fn func(uint64, float64)) { f.inner.RangeUsers(fn) }

// NumUsers implements AnytimeEstimator.
func (f *FreeBS) NumUsers() int { return f.inner.NumUsers() }

// Saturated reports whether the shared array has no zero bits left; past
// this point new pairs can no longer be counted (the M·ln M range limit).
func (f *FreeBS) Saturated() bool { return f.inner.Saturated() }

// view, cut, clone and merge implement layer.
func (f *FreeBS) view() layer  { return &FreeBS{inner: f.inner.SnapshotEstimates()} }
func (f *FreeBS) cut() layer   { return f.Snapshot() }
func (f *FreeBS) clone() layer { return f.Clone() }

func (f *FreeBS) merge(other layer) error {
	o, ok := other.(*FreeBS)
	if !ok {
		return fmt.Errorf("streamcard: merging %s into FreeBS: %w", other.Name(), ErrIncompatible)
	}
	return f.Merge(o)
}

// ---- FreeRS ----

// FreeRS wraps core.FreeRS behind the Estimator interface.
type FreeRS struct{ inner *core.FreeRS }

// NewFreeRS returns a FreeRS estimator with memoryBits bits of shared sketch
// memory, organized as memoryBits/5 five-bit registers (the paper's layout).
// It panics if the budget is below the shared two-register floor (see
// registerFloor).
func NewFreeRS(memoryBits int, opts ...Option) *FreeRS {
	o := buildOptions(opts)
	regs := registerCount(memoryBits, core.DefaultRegisterWidth, "NewFreeRS")
	return &FreeRS{inner: core.NewFreeRS(regs, o.seed)}
}

// Observe implements Estimator.
func (f *FreeRS) Observe(user, item uint64) { f.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (f *FreeRS) ObserveBatch(edges []Edge) { f.inner.ObserveBatch(edges) }

// Merge folds other into f so that f summarizes the union of both input
// streams; other is unchanged. Both sketches must have been built with the
// same memory size and seed (ErrIncompatible otherwise). The shared register
// array takes the register-wise max — bit-identical to a single sketch fed
// both streams, so TotalDistinct is exact after a merge — and per-user
// running estimates are reconciled via the array-derived totals (see
// internal/core).
func (f *FreeRS) Merge(other *FreeRS) error {
	if other == nil {
		return fmt.Errorf("streamcard: FreeRS.Merge(nil): %w", ErrIncompatible)
	}
	return f.inner.Merge(other.inner)
}

// Clone returns an independent deep copy of f.
func (f *FreeRS) Clone() *FreeRS { return &FreeRS{inner: f.inner.Clone()} }

// Snapshot returns an O(1) copy-on-write fork of f, logically frozen at the
// current state; see FreeBS.Snapshot for the contract.
func (f *FreeRS) Snapshot() *FreeRS { return &FreeRS{inner: f.inner.Snapshot()} }

// Estimate implements Estimator.
func (f *FreeRS) Estimate(user uint64) float64 { return f.inner.Estimate(user) }

// TotalDistinct implements Estimator using the global HLL view.
func (f *FreeRS) TotalDistinct() float64 { return f.inner.TotalDistinctHLL() }

// MemoryBits implements Estimator.
func (f *FreeRS) MemoryBits() int64 { return f.inner.MemoryBits() }

// Name implements Estimator.
func (f *FreeRS) Name() string { return "FreeRS" }

// Users implements AnytimeEstimator (ascending user order).
func (f *FreeRS) Users(fn func(uint64, float64)) { f.inner.Users(fn) }

// RangeUsers implements UserRanger (layout order, allocation-free).
func (f *FreeRS) RangeUsers(fn func(uint64, float64)) { f.inner.RangeUsers(fn) }

// NumUsers implements AnytimeEstimator.
func (f *FreeRS) NumUsers() int { return f.inner.NumUsers() }

// view, cut, clone and merge implement layer.
func (f *FreeRS) view() layer  { return &FreeRS{inner: f.inner.SnapshotEstimates()} }
func (f *FreeRS) cut() layer   { return f.Snapshot() }
func (f *FreeRS) clone() layer { return f.Clone() }

func (f *FreeRS) merge(other layer) error {
	o, ok := other.(*FreeRS)
	if !ok {
		return fmt.Errorf("streamcard: merging %s into FreeRS: %w", other.Name(), ErrIncompatible)
	}
	return f.Merge(o)
}

// ---- CSE ----

// CSE wraps the bit-sharing baseline (Yoon et al.) behind Estimator.
type CSE struct{ inner *cse.CSE }

// NewCSE returns a CSE estimator: memoryBits shared bits, virtual sketches
// of virtualM bits per user. Estimates cost O(virtualM).
func NewCSE(memoryBits, virtualM int, opts ...Option) *CSE {
	o := buildOptions(opts)
	return &CSE{inner: cse.New(memoryBits, virtualM, o.seed)}
}

// Observe implements Estimator.
func (c *CSE) Observe(user, item uint64) { c.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (c *CSE) ObserveBatch(edges []Edge) { c.inner.ObserveBatch(edges) }

// Estimate implements Estimator.
func (c *CSE) Estimate(user uint64) float64 { return c.inner.Estimate(user) }

// TotalDistinct implements Estimator.
func (c *CSE) TotalDistinct() float64 { return c.inner.TotalEstimate() }

// MemoryBits implements Estimator.
func (c *CSE) MemoryBits() int64 { return c.inner.MemoryBits() }

// Name implements Estimator.
func (c *CSE) Name() string { return "CSE" }

// ---- vHLL ----

// VHLL wraps the register-sharing baseline (Xiao et al.) behind Estimator.
type VHLL struct{ inner *vhll.VHLL }

// NewVHLL returns a vHLL estimator: memoryBits/5 shared five-bit registers,
// virtual sketches of virtualM registers per user. Estimates cost
// O(virtualM). It panics if the budget is below the shared two-register
// floor (see registerFloor) or virtualM does not fit under the register
// count.
func NewVHLL(memoryBits, virtualM int, opts ...Option) *VHLL {
	o := buildOptions(opts)
	regs := registerCount(memoryBits, vhll.Width, "NewVHLL")
	return &VHLL{inner: vhll.New(regs, virtualM, o.seed)}
}

// Observe implements Estimator.
func (v *VHLL) Observe(user, item uint64) { v.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (v *VHLL) ObserveBatch(edges []Edge) { v.inner.ObserveBatch(edges) }

// Estimate implements Estimator.
func (v *VHLL) Estimate(user uint64) float64 { return v.inner.Estimate(user) }

// TotalDistinct implements Estimator.
func (v *VHLL) TotalDistinct() float64 { return v.inner.TotalEstimate() }

// MemoryBits implements Estimator.
func (v *VHLL) MemoryBits() int64 { return v.inner.MemoryBits() }

// Name implements Estimator.
func (v *VHLL) Name() string { return "vHLL" }

// ---- per-user LPC ----

// PerUserLPC wraps the per-user linear-counting baseline behind Estimator.
type PerUserLPC struct{ inner *lpc.PerUser }

// NewPerUserLPC returns an estimator that lazily allocates an independent
// bitsPerUser-bit LPC sketch for every observed user.
func NewPerUserLPC(bitsPerUser int, opts ...Option) *PerUserLPC {
	o := buildOptions(opts)
	return &PerUserLPC{inner: lpc.NewPerUser(bitsPerUser, o.seed)}
}

// Observe implements Estimator.
func (p *PerUserLPC) Observe(user, item uint64) { p.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (p *PerUserLPC) ObserveBatch(edges []Edge) { p.inner.ObserveBatch(edges) }

// Estimate implements Estimator.
func (p *PerUserLPC) Estimate(user uint64) float64 { return p.inner.Estimate(user) }

// TotalDistinct implements Estimator (sum of per-user estimates, O(users)).
func (p *PerUserLPC) TotalDistinct() float64 {
	total := 0.0
	p.inner.Users(func(u uint64) { total += p.inner.Estimate(u) })
	return total
}

// MemoryBits implements Estimator (grows with the number of users).
func (p *PerUserLPC) MemoryBits() int64 { return p.inner.MemoryBits() }

// Name implements Estimator.
func (p *PerUserLPC) Name() string { return "LPC" }

// ---- per-user HLL++ ----

// PerUserHLLPP wraps the per-user HyperLogLog++ baseline behind Estimator.
type PerUserHLLPP struct{ inner *hll.PerUser }

// NewPerUserHLLPP returns an estimator that lazily allocates an independent
// HLL++ sketch of registersPerUser six-bit registers for every observed
// user (sparse-exact below the memory-parity threshold).
func NewPerUserHLLPP(registersPerUser int, opts ...Option) *PerUserHLLPP {
	o := buildOptions(opts)
	return &PerUserHLLPP{inner: hll.NewPerUser(registersPerUser, o.seed)}
}

// Observe implements Estimator.
func (p *PerUserHLLPP) Observe(user, item uint64) { p.inner.Observe(user, item) }

// ObserveBatch implements Estimator.
func (p *PerUserHLLPP) ObserveBatch(edges []Edge) { p.inner.ObserveBatch(edges) }

// Estimate implements Estimator.
func (p *PerUserHLLPP) Estimate(user uint64) float64 { return p.inner.Estimate(user) }

// TotalDistinct implements Estimator (sum of per-user estimates, O(users)).
func (p *PerUserHLLPP) TotalDistinct() float64 {
	total := 0.0
	p.inner.Users(func(u uint64) { total += p.inner.Estimate(u) })
	return total
}

// MemoryBits implements Estimator.
func (p *PerUserHLLPP) MemoryBits() int64 { return p.inner.MemoryBits() }

// Name implements Estimator.
func (p *PerUserHLLPP) Name() string { return "HLL++" }

// ---- super-spreader detection ----

// Spreader is one detected super spreader.
type Spreader = superspreader.Spreader

// SpreaderDetector flags users whose estimated cardinality reaches delta
// times the estimated total — the paper's §V-F case study, runnable on the
// fly against any AnytimeEstimator.
type SpreaderDetector struct{ inner *superspreader.Detector }

// NewSpreaderDetector returns a detector over est with relative threshold
// delta in (0, 1).
func NewSpreaderDetector(est AnytimeEstimator, delta float64) *SpreaderDetector {
	return &SpreaderDetector{inner: superspreader.NewDetector(adaptor{est}, delta)}
}

// Threshold returns the current absolute threshold delta·TotalDistinct().
func (d *SpreaderDetector) Threshold() float64 { return d.inner.Threshold() }

// Detect returns the currently flagged users, sorted by descending estimate.
func (d *SpreaderDetector) Detect() []Spreader { return d.inner.Detect() }

// adaptor narrows AnytimeEstimator to the superspreader.Estimator
// interface. Its Users uses the unordered allocation-free iteration when
// available: the detector re-sorts its findings, so enumeration order never
// reaches the output.
type adaptor struct{ e AnytimeEstimator }

func (a adaptor) Estimate(u uint64) float64      { return a.e.Estimate(u) }
func (a adaptor) TotalDistinct() float64         { return a.e.TotalDistinct() }
func (a adaptor) Users(fn func(uint64, float64)) { rangeUsers(a.e, fn) }

// Interface conformance checks.
var (
	_ AnytimeEstimator = (*FreeBS)(nil)
	_ AnytimeEstimator = (*FreeRS)(nil)
	_ layer            = (*FreeBS)(nil)
	_ layer            = (*FreeRS)(nil)
	_ Estimator        = (*CSE)(nil)
	_ Estimator        = (*VHLL)(nil)
	_ Estimator        = (*PerUserLPC)(nil)
	_ Estimator        = (*PerUserHLLPP)(nil)
)
