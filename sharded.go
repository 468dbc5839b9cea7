package streamcard

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/window"
)

// Sharded makes the paper's estimators safe for concurrent use and scalable
// across cores — the deployment shape the paper's conclusion points at (SDN
// routers and line-rate monitors process packets on many threads).
//
// Users are partitioned by hash across N independent shards, each its own
// estimator behind its own mutex: all edges of a user land in the same
// shard, so per-user estimates are exactly what a single estimator fed that
// user's sub-stream would produce, and shards never contend unless two
// threads hit the same shard simultaneously. TotalDistinct sums the shards
// (the sub-streams partition the pair space, so the sum is exact in
// expectation).
//
// The memory budget given to the constructor is split evenly across shards.
//
// The shards are FreeBS, FreeRS, or Windowed over either — one concrete type
// per stack — and the Sharded owns them: once built they are written and
// rotated only through it. Windowed shards carry no automatic rotation
// boundary, so Rotate alone advances their epochs, and it advances every
// shard together: the stack always sits at one epoch.
//
// Reads are snapshot-isolated: the stack publishes one epoch-consistent,
// estimates-only frozen view (ShardedView, see Snapshot in snapshot.go),
// and every query method is served from it with one atomic load, so
// queries, user enumerations and top-k scans never hold the shard locks.
// The write path (Observe/ObserveBatch/Rotate) is the only lock domain, and
// it keeps the view current: once the first Snapshot has armed
// publication, each write swaps in a copy of the view with its own shard's
// fresh fork before it releases the shard lock, and Rotate republishes the
// next epoch whole. Checkpoints and the merged total read the array words,
// which published views do not carry; they take a FullSnapshot cut, which
// briefly holds every shard lock.
type Sharded struct {
	shards []shard
	seed   uint64
	name   string
	// part is the run-aware counting-sort partitioner ObserveBatch splits
	// batches with — the same stream.Partitioner pre-partitioning pipelines
	// (the server's shard executors, a cluster router) build over
	// ShardIndex, so there is exactly one grouping implementation and any
	// path through it yields bit-identical per-shard sub-streams.
	part *stream.Partitioner

	// set is the published view; every query reads it with one atomic
	// load. It stays nil until the first Snapshot arms publication, so a
	// pure-ingest stack (bulk load, spool replay, a benchmark's fill phase)
	// pays one atomic load per write for a read path nobody is using.
	// Writers check it under their shard lock, and arming stores it under
	// every shard lock, so no write can slip between the arming cut and
	// publication.
	set atomic.Pointer[ShardedView]
}

type shard struct {
	mu  sync.Mutex
	est Estimator
}

// NewSharded returns a sharded wrapper with n shards; build(i) must return
// a fresh estimator for shard i (use distinct seeds per shard for hash
// independence, or one shared seed to enable TotalDistinctMerged). Every
// shard must be a FreeBS, a FreeRS, or a Windowed built without
// WithRotateEveryEdges or WithRotateEvery, and all n must share one
// concrete type. The Sharded owns the shards from then on: feed and rotate
// them only through it. It panics if n <= 0, if build is nil or returns
// nil, or if a shard breaks these rules.
func NewSharded(n int, build func(shard int) Estimator) *Sharded {
	if n <= 0 {
		panic("streamcard: NewSharded requires n > 0")
	}
	if build == nil {
		panic("streamcard: NewSharded requires a build function")
	}
	s := &Sharded{
		shards: make([]shard, n),
		seed:   hashing.Mix64(uint64(n) ^ 0x3779c0ffee),
	}
	s.part = stream.NewPartitioner(n, s.ShardIndex)
	for i := range s.shards {
		est := build(i)
		checkShard(est)
		if i > 0 && reflect.TypeOf(est) != reflect.TypeOf(s.shards[0].est) {
			panic(fmt.Sprintf("streamcard: NewSharded needs shards of one type, got %s and %s",
				s.shards[0].est.Name(), est.Name()))
		}
		s.shards[i].est = est
	}
	s.name = fmt.Sprintf("Sharded(%s,%d)", s.shards[0].est.Name(), n)
	return s
}

// checkShard panics unless est is a shard NewSharded accepts.
func checkShard(est Estimator) {
	switch e := est.(type) {
	case nil:
		panic("streamcard: build returned nil estimator")
	case *FreeBS, *FreeRS:
	case *Windowed:
		if _, manual := e.cfg.boundary.(window.Manual); !manual {
			panic(fmt.Sprintf("streamcard: NewSharded needs %s shards without a rotation boundary of their own: Sharded.Rotate advances them", e.Name()))
		}
	default:
		panic(fmt.Sprintf("streamcard: NewSharded needs FreeBS, FreeRS or Windowed shards, not %s", est.Name()))
	}
}

// ShardIndex returns the shard user's edges are routed to. Exported so
// multi-node deployments can pre-partition traffic the same way (feeding a
// shard-pure batch from one thread keeps that shard's sub-stream ordered and
// its estimates deterministic).
func (s *Sharded) ShardIndex(user uint64) int {
	return hashing.UniformIndex(hashing.HashU64(user, s.seed), len(s.shards))
}

// Observe implements Estimator; safe for concurrent use. Once a reader has
// armed publication, the write publishes a view with the shard's fresh
// fork before releasing the lock, so concurrent queries never wait on the
// write path. Publication forks only the per-user table, never the shared
// array, but per-edge Observe on a stack that is being queried still makes
// that table copy-on-write once per edge — the next write pays the detach
// copy — so hot served stacks should ingest through ObserveBatch, which
// amortizes one publication (and one detach) over the whole batch.
func (s *Sharded) Observe(user, item uint64) {
	t := s.ShardIndex(user)
	sh := &s.shards[t]
	sh.mu.Lock()
	sh.est.Observe(user, item)
	s.publishShard(t)
	sh.mu.Unlock()
}

// ObserveBatch implements Estimator; safe for concurrent use. The batch is
// grouped by shard with a stable counting sort over runs of consecutive
// same-user edges — a run routes to one shard, so the shard hash is computed
// once per run and edges move with memmove-speed copies — and every touched
// shard's mutex is taken once per batch instead of once per edge, so the
// lock cost and the inner estimator's per-run hoisting amortize over the
// whole batch. Within each shard the batch's edge order is preserved, which
// keeps Sharded.ObserveBatch bit-identical to the per-edge Observe loop.
func (s *Sharded) ObserveBatch(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	b := s.part.Split(edges)
	for t := range s.shards {
		if sub := b.Shard(t); len(sub) > 0 {
			s.absorbShard(t, sub)
		}
	}
	b.Release()
}

// ObserveShardBatch absorbs a shard-pure batch directly into shard idx,
// taking only that shard's mutex — the fast path for pipelines that
// partitioned upstream (stream.Partitioner over ShardIndex, typically at
// decode time) and so need no re-grouping here: with one feeder goroutine
// per shard the mutex is uncontended by construction, and all touched
// shards of a wire batch absorb concurrently. Every edge MUST route to idx
// per ShardIndex; edges that belong elsewhere silently corrupt per-user
// routing (a user's state splits across shards), which is why only
// partitioner output should ever reach this method. Within one shard,
// feeding the sub-batches of successive batches in order keeps the shard's
// sub-stream — and therefore every estimate — bit-identical to a
// sequential ObserveBatch twin. Safe for concurrent use; same writer-side
// snapshot publication as ObserveBatch.
func (s *Sharded) ObserveShardBatch(idx int, edges []Edge) {
	if idx < 0 || idx >= len(s.shards) {
		panic(fmt.Sprintf("streamcard: shard %d out of range [0,%d)", idx, len(s.shards)))
	}
	if len(edges) == 0 {
		return
	}
	s.absorbShard(idx, edges)
}

// absorbShard feeds one shard-pure sub-batch to shard t under its lock and,
// with publication armed, publishes the shard's fresh fork before release —
// so a query issued mid-batch reads the last published view instead of
// queueing behind the absorb.
func (s *Sharded) absorbShard(t int, sub []Edge) {
	sh := &s.shards[t]
	sh.mu.Lock()
	sh.est.ObserveBatch(sub)
	s.publishShard(t)
	sh.mu.Unlock()
}

// Estimate implements Estimator; safe for concurrent use. Served from the
// published snapshot: no shard lock is held for the read.
func (s *Sharded) Estimate(user uint64) float64 { return s.Snapshot().Estimate(user) }

// TotalDistinct implements Estimator (sum across shards, snapshot-served).
func (s *Sharded) TotalDistinct() float64 { return s.Snapshot().TotalDistinct() }

// MemoryBits implements Estimator (sum across shards).
func (s *Sharded) MemoryBits() int64 {
	var m int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		m += sh.est.MemoryBits()
		sh.mu.Unlock()
	}
	return m
}

// TotalDistinctMerged combines the shard sketches with Merge and returns the
// combined sketch's total — the array-derived, low-variance reading of the
// union, the way per-shard sketches are merged for a database-wide
// cardinality instead of summing independent estimates. It requires the
// shards to be built with identical parameters, including the seed: build
// shards with a shared seed to use it (user-partitioning keeps per-user
// estimates exact either way). With the customary distinct per-shard seeds
// it reports ErrIncompatible — fall back to TotalDistinct, which sums shard
// totals and needs no compatibility. Windowed shards are merged generation
// by generation at their common epoch. Safe for concurrent use; see
// ShardedView.TotalDistinctMerged for the full cut it merges and the
// per-view cache.
func (s *Sharded) TotalDistinctMerged() (float64, error) {
	return s.Snapshot().TotalDistinctMerged()
}

// Users implements AnytimeEstimator: fn is called once per user with a
// nonzero estimate — every user exactly once (users partition across
// shards), shards in index order and each shard's users in ascending user
// order, so /users-style output is reproducible across runs and restarts.
// The enumeration runs on the published view (ShardedView.Users) with no
// shard lock held, so fn may be slow, or call back into s, without stalling
// ingest. RangeUsers skips the per-shard sort when order does not matter.
func (s *Sharded) Users(fn func(user uint64, estimate float64)) { s.Snapshot().Users(fn) }

// RangeUsers implements UserRanger: the same exactly-once fan-out as Users,
// each shard iterated through its unordered allocation-free surface.
func (s *Sharded) RangeUsers(fn func(user uint64, estimate float64)) { s.Snapshot().RangeUsers(fn) }

// NumUsers implements AnytimeEstimator: the total number of users with a
// nonzero estimate, the sum of the per-shard counts (exact, since users
// partition across shards). Snapshot-served.
func (s *Sharded) NumUsers() int { return s.Snapshot().NumUsers() }

// Rotator is the epoch-advance surface of time-windowed estimators:
// Windowed implements it, Sharded fans it out, and deployments drive it from
// whatever marks their epochs (a timer, a watermark in the stream, an
// operator command).
type Rotator interface {
	// Rotate closes the current epoch and starts a fresh one.
	Rotate()
}

// Rotate advances every shard's window by one epoch. It takes every shard
// lock in ascending order — the one order of every path that holds more
// than one — so a rotation never tears a concurrent ObserveBatch (the
// batch's shard lock holds the rotation off until the batch is fully
// absorbed, and the batch is attributed to the epoch it started in). The
// shards rotate only here, so all of them end the call at the same epoch,
// which is also what keeps concurrent runs bit-identical to a sequential
// twin rotated at the same stream positions. With publication armed, the
// next epoch's view is published whole before the locks are released, so
// every published view freezes one epoch and no reader ever waits on a
// rotation. It panics, before touching any shard, if the shards are not
// Windowed.
//
// The trade-off: a rotation waits for the in-flight absorb on each shard
// while holding the locks it already has, so concurrent library writers
// wait for the rotation rather than readers. The server quiesces its
// ingest pipeline before it rotates, so there those waits are empty.
func (s *Sharded) Rotate() {
	if _, ok := s.shards[0].est.(Rotator); !ok {
		panic(fmt.Sprintf("streamcard: %s shards do not rotate (wrap a Windowed estimator)", s.shards[0].est.Name()))
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		s.shards[i].est.(Rotator).Rotate()
	}
	if s.set.Load() != nil {
		s.set.Store(s.cutLocked(forkView))
	}
}

// Name implements Estimator.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

var (
	_ Estimator        = (*Sharded)(nil)
	_ AnytimeEstimator = (*Sharded)(nil)
	_ UserRanger       = (*Sharded)(nil)
)
