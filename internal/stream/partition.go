package stream

// Shard partitioning. A sharded estimator routes every edge of a user to
// one shard (all of a user's state lives there), so any batched path —
// Sharded.ObserveBatch, the server's ingest pipeline, a cluster router —
// needs the same primitive: split a batch of edges into shard-pure
// sub-batches while preserving, within each shard, the batch's edge order
// (that order-preservation is what keeps batched ingestion bit-identical
// to the per-edge loop). Partitioner is that primitive, hoisted here so it
// is done ONCE per batch, as early as decode time: the server partitions a
// decoded wire batch on the handler goroutine and hands each shard
// executor an already-pure sub-batch, and Sharded.ObserveBatch uses the
// same implementation for the single-call absorb path.
//
// The split is a stable counting sort over maximal runs of consecutive
// same-user edges: one shard-index hash per run (not per edge), one
// memmove-speed copy per run into the grouped buffer. Real streams are
// bursty — a user's edges arrive in clumps — so runs amortize most of the
// routing cost away.

import (
	"fmt"
	"sync"
)

// Partitioner splits edge batches into shard-pure sub-batches for a fixed
// shard count and routing function. It is safe for concurrent use: each
// Split draws its scratch state from an internal pool, so concurrent
// batches neither allocate per call (steady state) nor share buffers.
type Partitioner struct {
	shards int
	index  func(user uint64) int
	pool   sync.Pool // *Partitioned
}

// NewPartitioner returns a partitioner over shards sub-streams; index must
// map a user to its shard in [0, shards) and be pure (same user, same
// shard — determinism of every downstream sub-stream depends on it). It
// panics if shards <= 0 or index is nil.
func NewPartitioner(shards int, index func(user uint64) int) *Partitioner {
	if shards <= 0 {
		panic("stream: NewPartitioner requires shards > 0")
	}
	if index == nil {
		panic("stream: NewPartitioner requires an index function")
	}
	p := &Partitioner{shards: shards, index: index}
	p.pool.New = func() any {
		return &Partitioned{p: p, offsets: make([]int, shards+1)}
	}
	return p
}

// NumShards returns the fixed shard count.
func (p *Partitioner) NumShards() int { return p.shards }

// partRun is one maximal run of consecutive same-user edges; the whole run
// routes to one shard, so the shard hash is computed once per run.
type partRun struct {
	run   []Edge
	shard int
}

// Partitioned is one batch split into shard-pure sub-batches. Sub-batches
// are subslices of a single grouped buffer owned by the Partitioned, so
// the source batch is free for reuse (or, for a zero-copy wire decode, its
// request body free for release) as soon as Split returns, at every shard
// count.
//
// Call Release when every sub-batch has been absorbed to return the
// buffers to the pool; using any sub-batch after Release is a data race
// with the pool's next Split.
type Partitioned struct {
	p       *Partitioner
	grouped []Edge
	// offsets[t] is the end of shard t's sub-batch in grouped (shard t
	// starts where shard t-1 ends; shard 0 at 0).
	offsets []int
	runs    []partRun // scratch; cleared on Release (runs alias the source)
}

// Split partitions edges by shard. The grouping is a stable counting sort:
// within each shard's sub-batch the edges keep their batch order, so
// feeding every sub-batch (in any shard order, from any goroutine) yields
// per-shard sub-streams bit-identical to routing the batch edge by edge.
func (p *Partitioner) Split(edges []Edge) *Partitioned {
	b := p.pool.Get().(*Partitioned)
	n := len(edges)
	if p.shards == 1 {
		// Grouping is the identity: one memmove, no routing.
		b.grouped = append(b.grouped[:0], edges...)
		b.offsets[0] = n
		return b
	}
	runs := b.runs[:0]
	offsets := b.offsets
	for i := range offsets {
		offsets[i] = 0
	}
	ForEachRun(edges, func(u uint64, run []Edge) {
		t := p.index(u)
		runs = append(runs, partRun{run: run, shard: t})
		offsets[t+1] += len(run)
	})
	// Prefix sums turn per-shard counts (offsets[t+1]) into start offsets
	// (offsets[t]); the scatter then advances them to end offsets, which is
	// exactly the layout Shard reads.
	for t := 1; t < len(offsets); t++ {
		offsets[t] += offsets[t-1]
	}
	if cap(b.grouped) < n {
		b.grouped = make([]Edge, n)
	}
	b.grouped = b.grouped[:n]
	for _, r := range runs {
		off := offsets[r.shard]
		copy(b.grouped[off:], r.run)
		offsets[r.shard] = off + len(r.run)
	}
	b.runs = runs
	return b
}

// Shard returns shard t's sub-batch (possibly empty): the batch's edges
// routed to t, in batch order. It panics on a shard index the partitioner
// was not built for.
func (b *Partitioned) Shard(t int) []Edge {
	if t < 0 || t >= b.p.shards {
		panic(fmt.Sprintf("stream: shard %d out of range [0,%d)", t, b.p.shards))
	}
	lo := 0
	if t > 0 {
		lo = b.offsets[t-1]
	}
	return b.grouped[lo:b.offsets[t]]
}

// Len returns the total edge count across all sub-batches.
func (b *Partitioned) Len() int { return b.offsets[b.p.shards-1] }

// NumShards returns the partitioner's shard count.
func (b *Partitioned) NumShards() int { return b.p.shards }

// Release returns the split's buffers to the partitioner's pool. The
// caller must be done with every sub-batch.
func (b *Partitioned) Release() {
	// Zero the run spans before pooling: they alias the source batch, and
	// stale entries past the next Split's run count would keep that whole
	// array reachable from the pool.
	clear(b.runs)
	b.runs = b.runs[:0]
	b.p.pool.Put(b)
}
