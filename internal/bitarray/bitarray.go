// Package bitarray implements the dense bit array shared by all users in the
// bit-sharing sketches (FreeBS, CSE) and by per-user LPC sketches.
//
// Beyond plain set/get, the array maintains its zero-bit count incrementally:
// FreeBS's change probability q_B^(t) = m0^(t-1)/M and CSE's global noise
// term m·ln(U^(t)/M) both need the number of zero bits at every time step,
// and recomputing it would cost O(M) per edge. The maintained count is exact
// (an integer), and Audit() recomputes it from scratch so tests can verify
// the invariant after arbitrary operation sequences.
package bitarray

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// BitArray is a fixed-size array of M bits, all initially zero.
// The zero value is not usable; call New.
type BitArray struct {
	words []uint64
	size  int // number of valid bits
	zeros int // maintained count of zero bits among the first size bits
}

// New returns a bit array of size bits, all zero. It panics if size <= 0.
func New(size int) *BitArray {
	if size <= 0 {
		panic("bitarray: size must be positive")
	}
	return &BitArray{
		words: make([]uint64, (size+63)/64),
		size:  size,
		zeros: size,
	}
}

// Size returns the number of bits M.
func (b *BitArray) Size() int { return b.size }

// ZeroCount returns the maintained number of zero bits m0.
func (b *BitArray) ZeroCount() int { return b.zeros }

// OnesCount returns the number of one bits.
func (b *BitArray) OnesCount() int { return b.size - b.zeros }

// ZeroFraction returns m0/M, the fraction of zero bits (FreeBS's q_B).
func (b *BitArray) ZeroFraction() float64 { return float64(b.zeros) / float64(b.size) }

// Get reports whether bit i is set. It panics if i is out of range.
func (b *BitArray) Get(i int) bool {
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("bitarray: index %d out of range [0,%d)", i, b.size))
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i to one and reports whether the bit changed (was zero).
// It panics if i is out of range.
func (b *BitArray) Set(i int) bool {
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("bitarray: index %d out of range [0,%d)", i, b.size))
	}
	w, mask := i>>6, uint64(1)<<uint(i&63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.zeros--
	return true
}

// Clear sets bit i to zero and reports whether the bit changed. It exists for
// windowed/decaying extensions and tests; the paper's algorithms never clear.
func (b *BitArray) Clear(i int) bool {
	if i < 0 || i >= b.size {
		panic(fmt.Sprintf("bitarray: index %d out of range [0,%d)", i, b.size))
	}
	w, mask := i>>6, uint64(1)<<uint(i&63)
	if b.words[w]&mask == 0 {
		return false
	}
	b.words[w] &^= mask
	b.zeros++
	return true
}

// Reset zeroes every bit.
func (b *BitArray) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.zeros = b.size
}

// Stats returns a statistics-only copy of b: the size and the maintained
// zero count, with no words. Every statistic (Size, ZeroCount, OnesCount,
// ZeroFraction) reads exactly as on b at the time of the call, but the copy
// holds no bits, so Get and Set on it panic and MarshalBinary, Clone and
// UnionWith refuse it. The estimates-only views of the serving path carry
// one of these.
func (b *BitArray) Stats() *BitArray {
	return &BitArray{size: b.size, zeros: b.zeros}
}

// HasWords reports whether b holds its bits, false only for a Stats copy.
func (b *BitArray) HasWords() bool { return len(b.words) > 0 }

// errStatsOnly is returned by the operations a Stats copy cannot serve.
var errStatsOnly = errors.New("bitarray: statistics-only copy holds no bits")

// Audit recomputes the zero count from the raw words. It returns an error if
// the maintained count disagrees (which would indicate a bug) and repairs the
// maintained count to the recomputed value.
func (b *BitArray) Audit() error {
	ones := 0
	for i, w := range b.words {
		if i == len(b.words)-1 && b.size&63 != 0 {
			w &= (1 << uint(b.size&63)) - 1
		}
		ones += bits.OnesCount64(w)
	}
	recomputed := b.size - ones
	if recomputed != b.zeros {
		old := b.zeros
		b.zeros = recomputed
		return fmt.Errorf("bitarray: maintained zero count %d != recomputed %d", old, recomputed)
	}
	return nil
}

// Clone returns a deep copy, the only copy of an array that keeps its bits.
// It panics on a Stats copy, which has no bits to copy: a clone is a
// mutable array, and one built from statistics alone would be a sketch
// that silently forgot every bit.
func (b *BitArray) Clone() *BitArray {
	if !b.HasWords() {
		panic(errStatsOnly.Error())
	}
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &BitArray{words: w, size: b.size, zeros: b.zeros}
}

// UnionWith ORs other into b. Both arrays must have the same size. Sketch
// union corresponds to the union of the underlying item sets, which makes
// bit-sharing sketches mergeable across monitoring points.
func (b *BitArray) UnionWith(other *BitArray) error {
	if other == nil || other.size != b.size {
		return errors.New("bitarray: union requires equal sizes")
	}
	if !b.HasWords() || !other.HasWords() {
		return errStatsOnly
	}
	zeros := 0
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	for i, w := range b.words {
		if i == len(b.words)-1 && b.size&63 != 0 {
			w &= (1 << uint(b.size&63)) - 1
		}
		zeros += 64 - bits.OnesCount64(w)
	}
	// The final partial word contributed (64 - size%64) phantom zeros.
	if b.size&63 != 0 {
		zeros -= 64 - b.size&63
	}
	b.zeros = zeros
	return nil
}

const marshalMagic = "BARR"

// MarshalBinary serializes the array (magic, size, words). It fails on a
// Stats copy, whose serialization would restore as an all-zero array.
func (b *BitArray) MarshalBinary() ([]byte, error) {
	if !b.HasWords() {
		return nil, errStatsOnly
	}
	out := make([]byte, 0, 4+8+8*len(b.words))
	out = append(out, marshalMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(b.size))
	for _, w := range b.words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary restores an array serialized by MarshalBinary.
func (b *BitArray) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || string(data[:4]) != marshalMagic {
		return errors.New("bitarray: bad header")
	}
	size := int(binary.LittleEndian.Uint64(data[4:]))
	if size <= 0 {
		return errors.New("bitarray: non-positive size")
	}
	nwords := (size + 63) / 64
	if len(data) != 12+8*nwords {
		return fmt.Errorf("bitarray: want %d payload bytes, have %d", 8*nwords, len(data)-12)
	}
	words := make([]uint64, nwords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	b.words = words
	b.size = size
	b.zeros = 0 // recompute below via Audit repair
	_ = b.Audit()
	return nil
}
