package hashing

// IndexFamily realizes the group of hash functions f_1(s), ..., f_m(s), each
// mapping a user to a cell index in {0, ..., M-1}, that the virtual-sketch
// methods CSE and vHLL use to scatter a user's m-cell virtual sketch across a
// shared array of M cells.
//
// The paper assumes m independent uniform hash functions. Following standard
// practice for Bloom-filter-style structures (Kirsch & Mitzenmacher, "Less
// Hashing, Same Performance"), we realize the family by double hashing:
//
//	f_i(s) = (h1(s) + i*h2(s)) mod M, with h2 forced odd,
//
// which needs only two hash evaluations per user regardless of m and retains
// the asymptotic behaviour the estimators rely on. Critically, a single
// family member f_i(s) can be evaluated in O(1) without materializing the
// other m-1 indices — this is what lets CSE/vHLL process an edge in O(1) even
// though their *estimation* step remains O(m).
type IndexFamily struct {
	seed1 uint64
	seed2 uint64
	m     int // family size (number of functions)
	space int // index space size M
}

// NewIndexFamily creates a family of m index functions over {0, ..., space-1}.
func NewIndexFamily(seed uint64, m, space int) *IndexFamily {
	if m <= 0 {
		panic("hashing: index family size m must be positive")
	}
	if space <= 0 {
		panic("hashing: index space must be positive")
	}
	return &IndexFamily{
		seed1: Mix64(seed ^ 0xa0761d6478bd642f),
		seed2: Mix64(seed ^ 0xe7037ed1a0b428db),
		m:     m,
		space: space,
	}
}

// M returns the family size m.
func (f *IndexFamily) M() int { return f.m }

// bases returns the double-hashing base pair (h1, h2) for user s, with h2
// forced odd so the stride is invertible modulo any power of two and shares
// no trivial factor with most moduli.
func (f *IndexFamily) bases(s uint64) (uint64, uint64) {
	h1 := HashU64(s, f.seed1)
	h2 := HashU64(s, f.seed2) | 1
	return h1, h2
}

// Basis returns the double-hashing base pair (h1, h2) for user s, from which
// IndexAt evaluates any family member without re-hashing the user. Batch
// ingestion hoists the basis out of the per-edge loop for runs of edges that
// share one user: IndexAt(Basis(s), i) == Index(s, i) for all i.
func (f *IndexFamily) Basis(s uint64) (h1, h2 uint64) { return f.bases(s) }

// IndexAt returns f_i(s) computed from a basis previously obtained via
// Basis(s). i must be in [0, m); unlike Index it is not range-checked, as the
// batch hot paths only pass indices produced by UniformIndex over [0, m).
func (f *IndexFamily) IndexAt(h1, h2 uint64, i int) int {
	return int((h1 + uint64(i)*h2) % uint64(f.space))
}

// Index returns f_i(s) for i in [0, m).
func (f *IndexFamily) Index(s uint64, i int) int {
	if i < 0 || i >= f.m {
		panic("hashing: index family member out of range")
	}
	h1, h2 := f.bases(s)
	return int((h1 + uint64(i)*h2) % uint64(f.space))
}

// Indices appends all m indices f_0(s), ..., f_{m-1}(s) to dst and returns
// the extended slice. Indices may repeat (the paper's analysis tolerates
// collisions within a virtual sketch; they occur with probability ~m²/2M).
func (f *IndexFamily) Indices(s uint64, dst []int) []int {
	h1, h2 := f.bases(s)
	space := uint64(f.space)
	for i := 0; i < f.m; i++ {
		dst = append(dst, int((h1+uint64(i)*h2)%space))
	}
	return dst
}
