package core

import (
	"math"

	"repro/internal/bitarray"
	"repro/internal/hashing"
	"repro/internal/usertab"
)

// FreeBS is the parameter-free bit-sharing estimator of §IV-A.
// The zero value is not usable; call NewFreeBS.
type FreeBS struct {
	sketch
	bits *bitarray.BitArray
	seed uint64
}

// FreeBSOption configures a FreeBS.
type FreeBSOption func(*FreeBS)

// WithPostUpdateQ makes FreeBS divide by the post-flip zero fraction
// (m0-1)/M instead of the pre-flip m0/M, mirroring the literal reading of
// the paper's Algorithm 2 ordering. Ablation only: the post-update q is
// smaller, so every increment is larger and the estimator acquires an
// upward bias of relative order 1/m0 per counted pair.
func WithPostUpdateQ() FreeBSOption { return func(f *FreeBS) { f.postUpdateQ = true } }

// NewFreeBS returns a FreeBS sharing an array of mBits bits among all users.
// mBits (the paper's M) is the only parameter, and it is just the memory
// budget — there is no per-user m to tune. It panics if mBits <= 0.
func NewFreeBS(mBits int, seed uint64, opts ...FreeBSOption) *FreeBS {
	f := &FreeBS{
		sketch: sketch{est: usertab.New()},
		bits:   bitarray.New(mBits),
		seed:   hashing.Mix64(seed ^ 0x6a09e667f3bcc908),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// M returns the shared array size in bits.
func (f *FreeBS) M() int { return f.bits.Size() }

// MemoryBits returns the fixed sketch memory in bits (the per-user estimate
// counters are excluded, matching the paper's accounting in §V-B, which
// grants every compared method one counter per user).
func (f *FreeBS) MemoryBits() int64 { return int64(f.bits.Size()) }

// ChangeProbability returns q_B = m0/M, the probability that the next new
// pair flips a bit. O(1).
func (f *FreeBS) ChangeProbability() float64 { return f.bits.ZeroFraction() }

// Observe processes edge (user, item) in O(1) and reports whether it flipped
// a bit (i.e. was treated as a new pair).
func (f *FreeBS) Observe(user, item uint64) bool {
	f.edges++
	idx := hashing.UniformIndex(hashing.HashPair(user, item, f.seed), f.bits.Size())
	m0 := f.bits.ZeroCount() // zero count before the update: q_B^(t)
	if !f.bits.Set(idx) {
		return false
	}
	f.credit(user, flipCredit(f.bits.Size(), m0, f.postUpdateQ))
	return true
}

// flipCredit returns the credit 1/q_B = M/m0 of a flip against m0 zero
// bits. Under WithPostUpdateQ it divides by the post-flip count m0-1
// instead, clamped to at least 1 so the flip of the last zero bit stays
// finite. Observe, ObserveBatch and merge reconciliation (harmonicCredit)
// all credit through it, so the three can never disagree.
func flipCredit(m, m0 int, postUpdate bool) float64 {
	q := m0
	if postUpdate {
		q = m0 - 1
		if q <= 0 {
			q = 1
		}
	}
	return float64(m) / float64(q)
}

// TotalDistinctLPC returns the independent linear-counting estimate
// -M·ln(m0/M) of n^(t) from the global array state. It has far lower
// variance than TotalDistinct for loaded arrays and is what the
// super-spreader detector uses for its threshold.
func (f *FreeBS) TotalDistinctLPC() float64 {
	m0 := f.bits.ZeroCount()
	bigM := f.bits.Size()
	if m0 == 0 {
		return float64(bigM) * math.Log(float64(bigM))
	}
	return -float64(bigM) * math.Log(float64(m0)/float64(bigM))
}

// MaxEstimate returns M·ln M ≈ Σ_{i=1..M} M/i, the estimation range of
// FreeBS (§IV-C): beyond this the shared array saturates.
func (f *FreeBS) MaxEstimate() float64 {
	m := float64(f.bits.Size())
	return m * math.Log(m)
}

// Saturated reports whether every bit is set (no further pairs can be
// counted).
func (f *FreeBS) Saturated() bool { return f.bits.ZeroCount() == 0 }

// Reset clears the sketch and all estimates.
func (f *FreeBS) Reset() {
	f.bits.Reset()
	f.reset()
}
