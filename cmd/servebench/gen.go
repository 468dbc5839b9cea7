package main

import (
	"repro/internal/hashing"
	"repro/internal/stream"
)

// gen is the seeded edge generator every workload draws from. The user of
// an edge is floor(U·x³) for a uniform x, which gives a heavy head of busy
// users over a long tail; with probability datagen.DefaultDuplicateRate the
// edge repeats an earlier item of the same user, otherwise it carries the
// user's next new item. Item j of user u is Mix64(u<<32 | j), a bijection of
// (u, j), so counts — the number of distinct items handed out per user — is
// the exact truth the server's estimates are checked against.
type gen struct {
	rng     *hashing.RNG
	base    uint64 // user IDs are base+u, so datasets never share users
	dupRate float64
	counts  []uint32
}

// newGen returns a generator over users [base, base+users) whose stream is
// a pure function of (seed, tag).
func newGen(seed, tag uint64, users int, base uint64, dupRate float64) *gen {
	return &gen{
		rng:     hashing.NewRNG(hashing.HashU64(seed, tag)),
		base:    base,
		dupRate: dupRate,
		counts:  make([]uint32, users),
	}
}

// itemOf is the j-th distinct item of user u.
func itemOf(u, j uint64) uint64 { return hashing.Mix64(u<<32 | j) }

// user draws a user index from the heavy-headed distribution.
func (g *gen) user() int {
	x := g.rng.Float64()
	return int(float64(len(g.counts)) * x * x * x)
}

// fill overwrites dst with the next len(dst) edges of the stream.
func (g *gen) fill(dst []stream.Edge) {
	for i := range dst {
		u := g.user()
		c := g.counts[u]
		j := c
		if c > 0 && g.rng.Float64() < g.dupRate {
			j = uint32(g.rng.Intn(int(c)))
		} else {
			g.counts[u] = c + 1
		}
		dst[i] = stream.Edge{User: g.base + uint64(u), Item: itemOf(uint64(u), uint64(j))}
	}
}

// distinct is the exact number of distinct (user, item) pairs generated.
func (g *gen) distinct() float64 {
	total := 0.0
	for _, c := range g.counts {
		total += float64(c)
	}
	return total
}

// sample returns up to n user indices with at least minCount distinct
// items, chosen by a seeded partial shuffle so the accuracy sample is a
// pure function of the seed.
func (g *gen) sample(seed uint64, n int, minCount uint32) []int {
	var eligible []int
	for u, c := range g.counts {
		if c >= minCount {
			eligible = append(eligible, u)
		}
	}
	rng := hashing.NewRNG(hashing.HashU64(seed, tagSample))
	if n > len(eligible) {
		n = len(eligible)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	return eligible[:n]
}

// Stream tags: each dataset a workload draws is its own seeded stream.
const (
	tagLoad uint64 = iota + 1
	tagBurst
	tagSample
	tagQuery
)
