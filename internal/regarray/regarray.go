// Package regarray implements packed fixed-width register arrays, the
// substrate of every register-sharing sketch in this repository (FreeRS,
// vHLL, HLL, HLL++).
//
// A register array holds M registers of w bits each (w in [1,8]), packed
// into a []uint64. Registers only grow (max-update), which is the
// HyperLogLog update discipline.
//
// Two derived statistics are exposed:
//
//   - the zero-register count, needed by linear-counting small-range
//     corrections (HLL, HLL++, vHLL) and by the FreeBS/FreeRS comparison in
//     §IV-C of the paper; it is always maintained incrementally;
//
//   - the harmonic sum Σ_j 2^-R[j], which drives the HLL raw estimate,
//     vHLL's global noise term, and FreeRS's change probability
//     q_R = Σ_j 2^-R[j] / M.
//
// When size·2^maxVal fits in a uint64 (true for the w=5 registers that
// FreeRS and vHLL use, up to M = 2^32), the harmonic sum is maintained
// incrementally as the exact integer S = Σ_j 2^(maxVal-R[j]) — no float
// drift, so the incremental value is bit-exact against recomputation, which
// the property tests enforce, and FreeRS's O(1)-per-edge claim holds.
// For wider registers (w=6 for HLL++) the sum is recomputed by scanning on
// demand; those sketches only need it inside their O(m) estimation step, so
// nothing is lost.
package regarray

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// pow2neg[k] = 2^-k for k in [0,255].
var pow2neg [256]float64

func init() {
	for k := range pow2neg {
		pow2neg[k] = math.Exp2(-float64(k))
	}
}

// Array is a packed array of M w-bit registers. The zero value is not usable;
// call New.
type Array struct {
	words  []uint64
	size   int   // number of registers M
	width  uint8 // bits per register w
	maxVal uint8 // (1<<w)-1, the register saturation value
	zeros  int   // maintained count of zero registers
	exact  bool  // whether scaled is maintained
	scaled uint64
	// scaled = Σ_j 2^(maxVal-R[j]), maintained incrementally when exact.
}

// New returns an array of size registers of width bits each, all zero.
// It panics unless 1 <= width <= 8 and size > 0.
func New(size int, width uint8) *Array {
	if size <= 0 {
		panic("regarray: size must be positive")
	}
	if width < 1 || width > 8 {
		panic("regarray: width must be in [1,8]")
	}
	maxVal := uint8(1<<width - 1)
	exact := maxVal < 64 && uint64(size) <= math.MaxUint64>>uint(maxVal)
	totalBits := size * int(width)
	a := &Array{
		words:  make([]uint64, (totalBits+63)/64),
		size:   size,
		width:  width,
		maxVal: maxVal,
		zeros:  size,
		exact:  exact,
	}
	if exact {
		a.scaled = uint64(size) << uint(maxVal)
	}
	return a
}

// Size returns the number of registers M.
func (a *Array) Size() int { return a.size }

// Width returns the register width w in bits.
func (a *Array) Width() uint8 { return a.width }

// MaxValue returns the saturation value (1<<w)-1.
func (a *Array) MaxValue() uint8 { return a.maxVal }

// Exact reports whether the harmonic sum is maintained incrementally as an
// exact integer (O(1) HarmonicSum) rather than recomputed by scanning.
func (a *Array) Exact() bool { return a.exact }

// ZeroCount returns the maintained number of zero registers.
func (a *Array) ZeroCount() int { return a.zeros }

// ScaledHarmonicSum returns Σ_j 2^(MaxValue()-R[j]) as an exact integer.
// It panics if the array is not in exact mode (see Exact).
func (a *Array) ScaledHarmonicSum() uint64 {
	if !a.exact {
		panic("regarray: scaled harmonic sum unavailable for this width/size")
	}
	return a.scaled
}

// HarmonicSum returns Σ_j 2^-R[j]. O(1) in exact mode, O(M) otherwise.
func (a *Array) HarmonicSum() float64 {
	if a.exact {
		return float64(a.scaled) / float64(uint64(1)<<uint(a.maxVal))
	}
	sum := 0.0
	for i := 0; i < a.size; i++ {
		sum += pow2neg[a.Get(i)]
	}
	return sum
}

// ChangeProbability returns Σ_j 2^-R[j] / M, the probability that a fresh
// uniformly-placed geometric rank changes some register — FreeRS's q_R.
func (a *Array) ChangeProbability() float64 {
	return a.HarmonicSum() / float64(a.size)
}

// Get returns register i. It panics if i is out of range.
func (a *Array) Get(i int) uint8 {
	if i < 0 || i >= a.size {
		panic(fmt.Sprintf("regarray: index %d out of range [0,%d)", i, a.size))
	}
	bitPos := i * int(a.width)
	w, off := bitPos>>6, uint(bitPos&63)
	v := a.words[w] >> off
	if off+uint(a.width) > 64 {
		v |= a.words[w+1] << (64 - off)
	}
	return uint8(v) & a.maxVal
}

// set stores v into register i without statistics maintenance.
func (a *Array) set(i int, v uint8) {
	bitPos := i * int(a.width)
	w, off := bitPos>>6, uint(bitPos&63)
	mask := uint64(a.maxVal) << off
	a.words[w] = a.words[w]&^mask | uint64(v)<<off
	if off+uint(a.width) > 64 {
		rem := off + uint(a.width) - 64
		mask2 := uint64(a.maxVal) >> (uint(a.width) - rem)
		a.words[w+1] = a.words[w+1]&^mask2 | uint64(v)>>(uint(a.width)-rem)
	}
}

// UpdateMax sets register i to max(R[i], v) and returns the previous value
// together with whether the register changed. v is clamped to MaxValue().
// This is the only mutation the sketch algorithms perform.
func (a *Array) UpdateMax(i int, v uint8) (old uint8, changed bool) {
	if v > a.maxVal {
		v = a.maxVal
	}
	old = a.Get(i)
	if v <= old {
		return old, false
	}
	a.set(i, v)
	if old == 0 {
		a.zeros--
	}
	if a.exact {
		a.scaled -= uint64(1) << uint(a.maxVal-old)
		a.scaled += uint64(1) << uint(a.maxVal-v)
	}
	return old, true
}

// Reset zeroes every register.
func (a *Array) Reset() {
	for i := range a.words {
		a.words[i] = 0
	}
	a.zeros = a.size
	if a.exact {
		a.scaled = uint64(a.size) << uint(a.maxVal)
	}
}

// Stats returns a statistics-only copy of a: the layout plus the maintained
// zero count and harmonic sum, with no words. Every statistic (Size, Width,
// ZeroCount, and in exact mode HarmonicSum and ChangeProbability) reads
// exactly as on a at the time of the call, but the copy holds no registers,
// so Get and UpdateMax on it panic and MarshalBinary, Clone and UnionWith
// refuse it. The estimates-only views of the serving path carry one of
// these.
func (a *Array) Stats() *Array {
	return &Array{size: a.size, width: a.width, maxVal: a.maxVal,
		zeros: a.zeros, exact: a.exact, scaled: a.scaled}
}

// HasWords reports whether a holds its registers, false only for a Stats
// copy.
func (a *Array) HasWords() bool { return len(a.words) > 0 }

// errStatsOnly is returned by the operations a Stats copy cannot serve.
var errStatsOnly = errors.New("regarray: statistics-only copy holds no registers")

// Audit recomputes the zero count (and, in exact mode, the scaled harmonic
// sum) from the packed words, repairs the maintained values, and returns an
// error if either disagreed (indicating a bug).
func (a *Array) Audit() error {
	zeros := 0
	var scaled uint64
	for i := 0; i < a.size; i++ {
		v := a.Get(i)
		if v == 0 {
			zeros++
		}
		if a.exact {
			scaled += uint64(1) << uint(a.maxVal-v)
		}
	}
	var err error
	if zeros != a.zeros || (a.exact && scaled != a.scaled) {
		err = fmt.Errorf("regarray: maintained (zeros=%d, scaled=%d) != recomputed (zeros=%d, scaled=%d)",
			a.zeros, a.scaled, zeros, scaled)
	}
	a.zeros = zeros
	if a.exact {
		a.scaled = scaled
	}
	return err
}

// Clone returns a deep copy, the only copy of an array that keeps its
// registers. It panics on a Stats copy, which has no registers to copy: a
// clone is a mutable array, and one built from statistics alone would be a
// sketch that silently forgot every register.
func (a *Array) Clone() *Array {
	if !a.HasWords() {
		panic(errStatsOnly.Error())
	}
	w := make([]uint64, len(a.words))
	copy(w, a.words)
	return &Array{words: w, size: a.size, width: a.width, maxVal: a.maxVal,
		zeros: a.zeros, exact: a.exact, scaled: a.scaled}
}

// UnionWith takes the register-wise max of a and other (sketch union).
// Both arrays must have identical size and width.
func (a *Array) UnionWith(other *Array) error {
	if other == nil || other.size != a.size || other.width != a.width {
		return errors.New("regarray: union requires equal size and width")
	}
	if !a.HasWords() || !other.HasWords() {
		return errStatsOnly
	}
	for i := 0; i < a.size; i++ {
		a.UpdateMax(i, other.Get(i))
	}
	return nil
}

const marshalMagic = "RARR"

// MarshalBinary serializes the array (magic, size, width, words). It fails
// on a Stats copy, whose serialization would restore as an all-zero array.
func (a *Array) MarshalBinary() ([]byte, error) {
	if !a.HasWords() {
		return nil, errStatsOnly
	}
	out := make([]byte, 0, 4+8+1+8*len(a.words))
	out = append(out, marshalMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(a.size))
	out = append(out, a.width)
	for _, w := range a.words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary restores an array serialized by MarshalBinary.
func (a *Array) UnmarshalBinary(data []byte) error {
	if len(data) < 13 || string(data[:4]) != marshalMagic {
		return errors.New("regarray: bad header")
	}
	size := int(binary.LittleEndian.Uint64(data[4:]))
	width := data[12]
	if size <= 0 || width < 1 || width > 8 {
		return errors.New("regarray: bad size/width")
	}
	nwords := (size*int(width) + 63) / 64
	if len(data) != 13+8*nwords {
		return fmt.Errorf("regarray: want %d payload bytes, have %d", 8*nwords, len(data)-13)
	}
	words := make([]uint64, nwords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[13+8*i:])
	}
	maxVal := uint8(1<<width - 1)
	a.words = words
	a.size = size
	a.width = width
	a.maxVal = maxVal
	a.exact = maxVal < 64 && uint64(size) <= math.MaxUint64>>uint(maxVal)
	_ = a.Audit() // recompute maintained statistics
	return nil
}
