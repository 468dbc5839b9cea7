package streamcard

import (
	"sort"
	"sync"
)

// TopK returns the k users with the largest current estimates, descending
// (ties broken by ascending user ID for determinism). On a Sharded or a
// ShardedView it runs the shard-concurrent selection; on any other
// estimator, the sequential reference. Either way the result is the same,
// bit for bit: the output order is a strict total order over unique users,
// so the selected set and its order do not depend on the execution
// strategy.
func TopK(est AnytimeEstimator, k int) []Spreader {
	switch e := est.(type) {
	case *Sharded:
		return e.TopK(k)
	case *ShardedView:
		return e.TopK(k)
	}
	return TopKSerial(est, k)
}

// TopKSerial is the sequential reference selection: one bounded min-heap fed
// by a single scan of the estimator's maintained estimates, O(users · log k)
// — the "who are my heaviest sources right now" query network monitors issue
// between edges. The scan goes through the unordered allocation-free
// iteration (UserRanger) when the estimator offers it — selection plus the
// final sort make the result independent of scan order, so TopKSerial never
// pays Users' sorted enumeration. The parallel sharded path must match this
// function's output exactly; the property tests hold it to that.
func TopKSerial(est AnytimeEstimator, k int) []Spreader {
	if k <= 0 {
		return nil
	}
	h := topkScratch.Get().(*topkHeap)
	h.reset(k)
	rangeUsers(est, h.offer)
	out := h.take()
	topkScratch.Put(h)
	return out
}

// spreaderWins reports whether a outranks b in the output order: descending
// estimate, ascending user ID on ties. Users are unique, so this is a
// strict total order — which is what makes top-k selection independent of
// scan order and of how the candidate set is split across shards.
func spreaderWins(a, b Spreader) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate > b.Estimate
	}
	return a.User < b.User
}

// sortSpreaders sorts s into the output order (best first).
func sortSpreaders(s []Spreader) {
	sort.Slice(s, func(i, j int) bool { return spreaderWins(s[i], s[j]) })
}

// topkScratch recycles selection heaps across queries: the per-shard heaps
// of the parallel fan-out and TopKSerial's single heap come from here, so a
// steady stream of analytics queries allocates only its k-element results.
var topkScratch = sync.Pool{New: func() any { return new(topkHeap) }}

// topkHeap is a bounded min-heap of the best k spreaders seen so far: the
// weakest entry (smallest estimate; largest user on ties — the loser under
// spreaderWins) sits at the root and evicts first.
type topkHeap struct {
	k    int
	heap []Spreader
}

// reset prepares the heap for a fresh selection of size k, keeping the
// backing array from previous uses.
func (h *topkHeap) reset(k int) {
	h.k = k
	h.heap = h.heap[:0]
}

// offer considers one (user, estimate) candidate.
func (h *topkHeap) offer(u uint64, e float64) {
	s := Spreader{User: u, Estimate: e}
	if len(h.heap) < h.k {
		h.heap = append(h.heap, s)
		h.siftUp(len(h.heap) - 1)
		return
	}
	if spreaderWins(s, h.heap[0]) {
		h.heap[0] = s
		h.siftDown()
	}
}

// take sorts the selection into the output order and returns it as a fresh
// slice; the heap's backing array stays with h for reuse through the pool.
func (h *topkHeap) take() []Spreader {
	if len(h.heap) == 0 {
		return nil
	}
	sortSpreaders(h.heap)
	out := make([]Spreader, len(h.heap))
	copy(out, h.heap)
	return out
}

func (h *topkHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !spreaderWins(h.heap[p], h.heap[i]) {
			break
		}
		h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
		i = p
	}
}

func (h *topkHeap) siftDown() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		weakest := i
		if l < len(h.heap) && spreaderWins(h.heap[weakest], h.heap[l]) {
			weakest = l
		}
		if r < len(h.heap) && spreaderWins(h.heap[weakest], h.heap[r]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		h.heap[i], h.heap[weakest] = h.heap[weakest], h.heap[i]
		i = weakest
	}
}
