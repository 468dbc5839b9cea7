package streamcard

// Shard-concurrent analytics read path.
//
// Two invariants the serving stack already guarantees make analytics queries
// embarrassingly parallel:
//
//   - Users are partitioned by hash (Sharded.ShardIndex), so each user's
//     ENTIRE estimate lives in exactly one shard. Any per-user aggregation
//     therefore decomposes exactly: the global top k is contained in the
//     union of per-shard top k's, a user count is the sum of per-shard
//     counts, and no cross-shard reconciliation is ever needed.
//   - Analytics reads run on immutable published snapshots (a ShardedView
//     holds one frozen view per shard), so the per-shard work is lock-free
//     and touches no writer state.
//
// This file fans that per-shard work out over a bounded worker pool sized to
// GOMAXPROCS: TopK runs one bounded min-heap per shard and merges the
// winners, NumUsers sums per-shard counts, Users sorts every shard's
// per-user sums in parallel, and RangeUsers builds every shard's sealed
// fold in parallel, before their serial enumeration (fn is called serially
// — that contract does not change).
//
// On windowed shards no read builds a per-user table. Nearly every write
// publishes a new view, but a write moves only the current generation: the
// k−1 sealed ones are fixed until they retire. So each window folds its
// sealed generations once per epoch, at the epoch's first analytics read,
// and every view of the epoch shares that fold; a read then streams the
// per-user sums into its heap or count, one fold-index probe per
// current-generation user (Windowed.RangeUsers).
//
// Results are bit-identical to the sequential reference: the output order is
// a strict total order over unique users, so neither the shard split nor the
// pool's scheduling can reach the output.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachShard runs work(i) for every i in [0, n) on a bounded worker pool
// of min(GOMAXPROCS, n) goroutines pulling indices from a shared counter.
// With one worker (or one shard) it runs inline on the caller's goroutine —
// single-core hosts pay no scheduling overhead and stay easy to reason
// about. work must not panic: a panic on a pool goroutine would kill the
// process.
func forEachShard(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// TopK is the shard-concurrent selection: one bounded min-heap per shard
// on the worker pool, then a merge of the per-shard winners.
//
// Exactness: each user's entire estimate lives in exactly one shard, so
// every member of the global top k is inside its own shard's top k — the
// union of per-shard winners (≤ shards·k candidates) is a superset of the
// answer, and merging loses nothing. Determinism: (estimate desc, user asc)
// is a strict total order (user IDs are unique), so the selected set and
// its order are unique — bit-identical to TopKSerial over the same view,
// which the property tests assert across shard counts, k, and tie-heavy
// inputs.
func (v *ShardedView) TopK(k int) []Spreader {
	if k <= 0 {
		return nil
	}
	n := len(v.views)
	if n == 1 {
		return TopKSerial(v.views[0], k)
	}
	per := make([][]Spreader, n)
	forEachShard(n, func(i int) {
		per[i] = TopKSerial(v.views[i], k)
	})
	return mergeTopK(per, k)
}

// TopK on the live Sharded routes through the published snapshot like every
// other read.
func (s *Sharded) TopK(k int) []Spreader { return s.Snapshot().TopK(k) }

// mergeTopK merges per-shard top-k selections (each already in output
// order) into the global top k: concatenate the ≤ shards·k winners, sort
// with the same strict total order the per-shard heaps used, truncate to k.
func mergeTopK(per [][]Spreader, k int) []Spreader {
	total := 0
	for _, p := range per {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	all := make([]Spreader, 0, total)
	for _, p := range per {
		all = append(all, p...)
	}
	sortSpreaders(all)
	if len(all) > k {
		all = all[:k:k]
	}
	return all
}
