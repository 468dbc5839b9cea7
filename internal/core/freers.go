package core

import (
	"math"

	"repro/internal/hashing"
	"repro/internal/hll"
	"repro/internal/regarray"
	"repro/internal/usertab"
)

// DefaultRegisterWidth is the register width the paper evaluates FreeRS with
// (w = 5 bits, §V-B).
const DefaultRegisterWidth = 5

// FreeRS is the parameter-free register-sharing estimator of §IV-B.
// The zero value is not usable; call NewFreeRS.
type FreeRS struct {
	sketch
	regs     *regarray.Array
	seedIdx  uint64
	seedRank uint64
	width    uint8
}

// FreeRSOption configures a FreeRS.
type FreeRSOption func(*FreeRS)

// WithPostUpdateQRS makes FreeRS divide by the post-update q_R, the literal
// order of the paper's Algorithm 2 pseudocode, instead of the pre-update
// q_R^(t) its Theorem 2 analysis requires. Ablation only: the post-update
// q_R is smaller, so the estimator acquires a small upward bias.
func WithPostUpdateQRS() FreeRSOption { return func(f *FreeRS) { f.postUpdateQ = true } }

// WithRegisterWidth sets the register width w in bits (default 5). The
// paper fixes w = 5; other widths are exposed for the ablation study of the
// memory/accuracy trade-off. Widths whose scaled harmonic sum cannot be
// maintained exactly (w > 5 at realistic M) are rejected because FreeRS's
// O(1) update depends on the maintained sum.
func WithRegisterWidth(w uint8) FreeRSOption { return func(f *FreeRS) { f.width = w } }

// NewFreeRS returns a FreeRS sharing an array of mRegs registers among all
// users. mRegs (the paper's M) is the only parameter. It panics if
// mRegs <= 0 or the width is unsupported.
func NewFreeRS(mRegs int, seed uint64, opts ...FreeRSOption) *FreeRS {
	f := &FreeRS{
		sketch:   sketch{est: usertab.New()},
		seedIdx:  hashing.Mix64(seed ^ 0xbb67ae8584caa73b),
		seedRank: hashing.Mix64(seed ^ 0x3c6ef372fe94f82b),
		width:    DefaultRegisterWidth,
	}
	for _, o := range opts {
		o(f)
	}
	f.regs = regarray.New(mRegs, f.width)
	if !f.regs.Exact() {
		panic("core: FreeRS requires a width/size combination with an exactly maintained harmonic sum")
	}
	return f
}

// M returns the shared array size in registers.
func (f *FreeRS) M() int { return f.regs.Size() }

// Width returns the register width in bits.
func (f *FreeRS) Width() uint8 { return f.width }

// MemoryBits returns the fixed sketch memory in bits.
func (f *FreeRS) MemoryBits() int64 { return int64(f.regs.Size()) * int64(f.width) }

// ChangeProbability returns q_R = Σ_j 2^-R[j] / M, the probability that the
// next new pair changes a register. O(1) via the maintained exact sum.
func (f *FreeRS) ChangeProbability() float64 { return f.regs.ChangeProbability() }

// Observe processes edge (user, item) in O(1) and reports whether it changed
// a register (i.e. was treated as a new pair).
func (f *FreeRS) Observe(user, item uint64) bool {
	f.edges++
	idx := hashing.UniformIndex(hashing.HashPair(user, item, f.seedIdx), f.regs.Size())
	rank := hashing.Rho(hashing.HashPair(user, item, f.seedRank), f.regs.MaxValue())
	q := f.regs.ChangeProbability() // q_R^(t): state before the edge
	if _, changed := f.regs.UpdateMax(idx, rank); !changed {
		return false
	}
	if f.postUpdateQ {
		q = f.regs.ChangeProbability() // Algorithm-2-literal ordering
	}
	f.credit(user, 1/q)
	return true
}

// TotalDistinctHLL returns the independent HLL estimate of n^(t) from the
// global register state (with small-range correction). Lower variance than
// TotalDistinct; used for super-spreader thresholds.
func (f *FreeRS) TotalDistinctHLL() float64 {
	bigM := float64(f.regs.Size())
	raw := hll.Alpha(f.regs.Size()) * bigM * bigM / f.regs.HarmonicSum()
	if raw < 2.5*bigM {
		if z := f.regs.ZeroCount(); z > 0 {
			return bigM * math.Log(bigM/float64(z))
		}
	}
	return raw
}

// MaxEstimate returns the estimation range of FreeRS, about 2^(2^w) (§IV-C):
// with w=5, registers saturate at rank 31, bounding countable cardinality by
// roughly 2^31 per register slot. Far beyond FreeBS's M·ln M in practice.
func (f *FreeRS) MaxEstimate() float64 {
	return math.Exp2(math.Exp2(float64(f.width)))
}

// Reset clears the sketch and all estimates.
func (f *FreeRS) Reset() {
	f.regs.Reset()
	f.reset()
}
