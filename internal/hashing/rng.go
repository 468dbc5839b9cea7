package hashing

import "math"

// RNG is a xoshiro256** pseudo-random generator (Blackman & Vigna). The data
// generators use it instead of math/rand so that synthetic datasets are
// bit-for-bit reproducible across Go releases (math/rand's algorithms are not
// part of the compatibility promise) and so that the repository exercises a
// from-scratch substrate end to end.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed via splitmix64,
// the seeding procedure recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	var r RNG
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
	// A pathological all-zero state cannot arise from splitmix64 seeding of
	// four consecutive outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn argument must be positive")
	}
	return UniformIndex(r.Uint64(), n)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Poisson returns a Poisson(lambda) variate. For small lambda (the duplicate
// injector uses lambda < 10) Knuth's product method is exact and fast; for
// larger lambda it falls back to a normal approximation with continuity
// correction, which is ample for workload synthesis.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5
	if n < 0 {
		return 0
	}
	return int(n)
}

// NormFloat64 returns a standard normal variate via the Box–Muller transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
