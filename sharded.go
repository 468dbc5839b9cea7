package streamcard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashing"
	"repro/internal/stream"
)

// Sharded makes any Estimator safe for concurrent use and scalable across
// cores — the deployment shape the paper's conclusion points at (SDN
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
// Reads are snapshot-isolated: when the shard estimators support
// copy-on-write snapshots (FreeBS, FreeRS, Windowed over either), every
// query method is served from an atomically published, epoch-consistent,
// estimates-only frozen view (see Snapshot and ShardedView in snapshot.go),
// so queries, user enumerations and top-k scans never hold the shard
// locks — the write path (Observe/ObserveBatch/Rotate) is the only lock
// domain, and once a reader exists it also publishes each shard's fresh
// snapshot as it releases the lock, so queries stay fast (atomic loads)
// even while large batches are absorbing. Checkpoints and the merged total
// read the array words, which published views do not carry; they take a
// FullSnapshot cut, which briefly holds every shard lock. Other estimator
// types fall back to the locked read paths.
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

	// snapshottable is fixed at construction: every shard supports O(1)
	// copy-on-write snapshots, so the read methods route through Snapshot.
	snapshottable bool
	// readers arms writer-side snapshot publication; it is set (once, never
	// cleared) by the first Snapshot call. While unset, writes skip the
	// per-batch publish entirely — a pure-ingest stack (bulk load, spool
	// replay, a benchmark's fill phase) pays nothing for a read path nobody
	// is using. Correctness never depends on the flag: shardView's locked
	// refresh covers any shard written before its publication was armed.
	readers atomic.Bool
	// set is the published epoch-consistent view of all shards; stale (any
	// shard's version moved on, or an epoch race was caught) views are
	// rebuilt incrementally by Snapshot.
	set atomic.Pointer[ShardedView]
	// rotMu serializes whole rotation fan-outs against the fully locked
	// snapshot cut (lockedCut), so an all-locks view can never
	// interleave a rotation and both sides stay deadlock-free by taking
	// rotMu before any shard lock. The ingest paths never touch it.
	rotMu sync.Mutex
}

type shard struct {
	mu  sync.Mutex
	est Estimator

	// ver counts mutations (bumped under mu, read without it): the
	// freshness stamp published snapshots are checked against.
	ver atomic.Uint64
	// snap is the shard's published frozen snapshot; nil until first use.
	snap atomic.Pointer[shardSnap]
}

// NewSharded returns a sharded wrapper with n shards; build(i) must return
// a fresh estimator for shard i (use distinct seeds per shard for hash
// independence). It panics if n <= 0 or build returns nil.
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
	s.snapshottable = true
	for i := range s.shards {
		est := build(i)
		if est == nil {
			panic("streamcard: build returned nil estimator")
		}
		s.shards[i].est = est
		if !estSnapshottable(est) {
			s.snapshottable = false
		}
	}
	s.name = fmt.Sprintf("Sharded(%s,%d)", s.shards[0].est.Name(), n)
	return s
}

func (s *Sharded) shardFor(user uint64) *shard {
	return &s.shards[s.ShardIndex(user)]
}

// ShardIndex returns the shard user's edges are routed to. Exported so
// multi-node deployments can pre-partition traffic the same way (feeding a
// shard-pure batch from one thread keeps that shard's sub-stream ordered and
// its estimates deterministic).
func (s *Sharded) ShardIndex(user uint64) int {
	return hashing.UniformIndex(hashing.HashU64(user, s.seed), len(s.shards))
}

// Observe implements Estimator; safe for concurrent use. Once a reader has
// armed publication, the write publishes the shard's fresh snapshot before
// releasing the lock, so concurrent queries never wait on the write path.
// Publication forks only the per-user table, never the shared array, but
// per-edge Observe on a stack that is being queried still makes that table
// copy-on-write once per edge — the next write pays the detach copy — so
// hot served stacks should ingest through ObserveBatch, which amortizes one
// publication (and one detach) over the whole batch.
func (s *Sharded) Observe(user, item uint64) {
	sh := s.shardFor(user)
	sh.mu.Lock()
	sh.est.Observe(user, item)
	sh.ver.Add(1)
	if s.snapshottable && s.readers.Load() {
		sh.publishLocked()
	}
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
	// With publication armed (a reader exists), every touched shard's fresh
	// snapshot is published before its lock is released — the inversion that
	// keeps query latency flat under batch ingest: a reader assembling a
	// view mid-batch finds current snapshots waiting instead of queueing
	// behind the absorb for a locked refresh.
	pub := s.snapshottable && s.readers.Load()
	b := s.part.Split(edges)
	for t := range s.shards {
		if sub := b.Shard(t); len(sub) > 0 {
			s.absorbShard(t, sub, pub)
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
	s.absorbShard(idx, edges, s.snapshottable && s.readers.Load())
}

// absorbShard feeds one shard-pure sub-batch to shard t under its lock,
// publishing the shard's fresh snapshot before release when pub is set.
func (s *Sharded) absorbShard(t int, sub []Edge, pub bool) {
	sh := &s.shards[t]
	sh.mu.Lock()
	sh.est.ObserveBatch(sub)
	sh.ver.Add(1)
	if pub {
		sh.publishLocked()
	}
	sh.mu.Unlock()
}

// Estimate implements Estimator; safe for concurrent use. Served from the
// published snapshot when available: no shard lock is held for the read.
func (s *Sharded) Estimate(user uint64) float64 {
	if v := s.Snapshot(); v != nil {
		return v.Estimate(user)
	}
	sh := s.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.est.Estimate(user)
}

// TotalDistinct implements Estimator (sum across shards; snapshot-served
// when available).
func (s *Sharded) TotalDistinct() float64 {
	if v := s.Snapshot(); v != nil {
		return v.TotalDistinct()
	}
	total := 0.0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.est.TotalDistinct()
		sh.mu.Unlock()
	}
	return total
}

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
// cardinality instead of summing independent estimates. It requires every
// shard to wrap the same mergeable type (FreeBS, FreeRS, or a Windowed over
// either) built with identical parameters, including the seed: build shards
// with a shared seed to use it (user-partitioning keeps per-user estimates
// exact either way). With the customary distinct per-shard seeds it reports
// ErrIncompatible — fall back to TotalDistinct, which sums shard totals and
// needs no compatibility. Windowed shards additionally require every shard
// to sit at the same epoch (ErrIncompatible otherwise), which Rotate
// guarantees as long as rotations go through it. Safe for concurrent use.
// The merge runs on a FullSnapshot cut — it holds the rotation mutex and
// every shard lock only while the O(1) forks are taken, never during the
// merge — and the result is cached on the published view until the next
// write publishes a fresh one, so repeated totals over an unchanged stack
// pay a single cut and merge.
func (s *Sharded) TotalDistinctMerged() (float64, error) {
	if v := s.Snapshot(); v != nil {
		return v.TotalDistinctMerged()
	}
	// Every mergeable shard type also snapshots, so a stack without
	// snapshots has a shard that cannot merge.
	return 0, fmt.Errorf("streamcard: %s: not every shard is mergeable: %w", s.name, ErrIncompatible)
}

// mergeable is the self-referential merge surface both FreeBS and FreeRS
// expose; mergeViewsTyped and mergeGen are generic over it so the
// clone-then-fold aggregation is written once.
type mergeable[T any] interface {
	Merge(T) error
	Clone() T
	TotalDistinct() float64
}

// Users implements AnytimeEstimator: fn is called once per user with a
// nonzero estimate, fanning out across the shards. Users partition across
// shards (all of a user's edges land in one shard), so every user is
// reported exactly once and the union of the per-shard user sets is the
// deployment-wide user set — no merge map needed, unlike Windowed. Each
// shard's lock is held while its users stream through fn, so fn must not
// call back into s (the locks are not reentrant). It requires the shard
// estimators to be AnytimeEstimators (FreeBS, FreeRS, or Windowed over
// either) and panics otherwise. Report order is fully deterministic: shards
// in index order, each shard's users in ascending user order (the
// AnytimeEstimator enumeration contract) — so /users-style output is
// reproducible across runs and restarts. RangeUsers skips the per-shard
// sort when order does not matter.
//
// Snapshot-served when available: the enumeration then runs on a frozen
// view with no shard lock held, so fn may be slow (or call back into s)
// without stalling ingest.
func (s *Sharded) Users(fn func(user uint64, estimate float64)) {
	if v := s.Snapshot(); v != nil {
		v.Users(fn)
		return
	}
	s.eachShardUsers(func(a AnytimeEstimator) { a.Users(fn) }, "Users")
}

// RangeUsers implements UserRanger: the same exactly-once fan-out as Users
// (users partition across shards), each shard iterated through its
// unordered allocation-free surface. Same locking caveats as Users.
func (s *Sharded) RangeUsers(fn func(user uint64, estimate float64)) {
	if v := s.Snapshot(); v != nil {
		v.RangeUsers(fn)
		return
	}
	s.eachShardUsers(func(a AnytimeEstimator) { rangeUsers(a, fn) }, "RangeUsers")
}

// eachShardUsers runs visit over every shard's AnytimeEstimator in shard
// order, one shard lock at a time, panicking (outside the lock) on shards
// that maintain no per-user estimates.
func (s *Sharded) eachShardUsers(visit func(AnytimeEstimator), method string) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		a, ok := sh.est.(AnytimeEstimator)
		if ok {
			visit(a)
		}
		sh.mu.Unlock()
		if !ok {
			panic(fmt.Sprintf("streamcard: Sharded.%s needs AnytimeEstimator shards (FreeBS/FreeRS/Windowed), not %s", method, sh.est.Name()))
		}
	}
}

// NumUsers implements AnytimeEstimator: the total number of users with a
// nonzero estimate, the sum of the per-shard counts (exact, since users
// partition across shards). Same requirements as Users; snapshot-served
// when available.
func (s *Sharded) NumUsers() int {
	if v := s.Snapshot(); v != nil {
		return v.NumUsers()
	}
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		a, ok := sh.est.(AnytimeEstimator)
		if ok {
			total += a.NumUsers()
		}
		sh.mu.Unlock()
		if !ok {
			panic(fmt.Sprintf("streamcard: Sharded.NumUsers needs AnytimeEstimator shards (FreeBS/FreeRS/Windowed), not %s", sh.est.Name()))
		}
	}
	return total
}

// Rotator is the epoch-advance surface of time-windowed estimators:
// Windowed implements it, Sharded fans it out, and deployments drive it from
// whatever marks their epochs (a timer, a watermark in the stream, an
// operator command).
type Rotator interface {
	// Rotate closes the current epoch and starts a fresh one.
	Rotate()
}

// Rotate advances every shard's window by one epoch, taking each shard's
// lock as it goes — the same one-lock-per-shard discipline as ingestion, so
// a rotation never tears a concurrent ObserveBatch (the batch's shard lock
// holds the rotation off until the batch is fully absorbed, and the batch is
// attributed to the epoch it started in). All shards end the call at the
// same epoch: a Sharded(Windowed(...)) rotates coherently under one epoch
// as long as rotations are issued from one place, which is also what keeps
// concurrent runs bit-identical to a sequential twin rotated at the same
// stream positions. It panics if the shard estimators do not implement
// Rotator.
//
// Rotation publishes instead of quiescing: each shard's fresh snapshot
// (the new epoch) is published while its lock is still held, and readers
// assembling a cross-shard view mid-fan-out simply retry until every shard
// reports the same epoch (Snapshot) — no reader is ever blocked for the
// whole fan-out. The fan-out runs under rotMu so the fully locked snapshot
// cut can exclude it.
func (s *Sharded) Rotate() {
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		r, ok := sh.est.(Rotator)
		if ok {
			r.Rotate()
			sh.ver.Add(1)
			if s.snapshottable {
				sh.publishLocked()
			}
		}
		sh.mu.Unlock()
		if !ok {
			panic(fmt.Sprintf("streamcard: %s shards do not rotate (wrap a Windowed estimator)", sh.est.Name()))
		}
	}
	// Drop the assembled pre-rotation view: it references every shard's
	// pre-rotation generations — including the ones this rotation just
	// retired — and nothing else would release them until the next query
	// happened to republish. The next Snapshot reassembles from the
	// per-shard snapshots published above.
	s.set.Store(nil)
}

// Name implements Estimator.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

var (
	_ Estimator = (*Sharded)(nil)
	// AnytimeEstimator holds whenever the shard estimators are themselves
	// AnytimeEstimators (FreeBS, FreeRS, or Windowed over either); Users and
	// NumUsers panic otherwise. The same caveat applies to UserRanger.
	_ AnytimeEstimator = (*Sharded)(nil)
	_ UserRanger       = (*Sharded)(nil)
)
