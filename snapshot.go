package streamcard

// The sharded read path. Every query surface of Sharded — Estimate, totals,
// user enumeration, top-k — is served from a ShardedView: one frozen
// estimates-only fork per shard, published as a whole through one atomic
// pointer. A query is one atomic load; it never assembles, retries or
// locks. The writers keep the view current instead: a write forks its own
// shard under the shard lock it already holds and compare-and-swaps in a
// copy of the published view with that one slot replaced, so a query issued
// while a 65k-edge batch is mid-absorb reads the view published before the
// batch and never queues behind it. (An earlier design made the *reader*
// refresh stale per-shard snapshots under the shard locks, which queued
// every query issued during a large ObserveBatch behind the whole batch —
// tens of milliseconds per query under continuous ingest.) This is the
// architecture time-series storage engines use for cardinality serving —
// one read set of immutable per-shard sketches, so reads never stall
// writes — and it makes the write path the only lock domain in the stack.
//
// Published forks are estimates-only (each shard's layer view): its
// per-user table forked copy-on-write plus its array's maintained
// statistics, never the array words, so publishing on every write costs
// the writer no array copy. The two readers of array words — checkpoints
// and the merged union total — take FullSnapshot, an unpublished cut that
// copies each shard's current array and per-user table, at their own
// cadence.
//
// Consistency: each slot of a view is a valid frozen prefix of its own
// shard's sub-stream (users partition across shards, so there is no
// cross-shard ordering to tear), and every view freezes ONE epoch by
// construction. A write swaps one slot while holding that shard's lock; a
// rotation holds every shard lock, rotates all shards and publishes the
// next epoch's view whole; so no write can publish a slot across a
// rotation, and no view mixes epochs. Paths that hold more than one shard
// lock (Rotate, the arming cut, FullSnapshot) take all of them in
// ascending order, so they cannot deadlock each other or a writer, which
// holds one.

// ShardedView is one epoch-consistent frozen cut across every shard — the
// unit all sharded queries are answered from. It implements the full read
// side of AnytimeEstimator/UserRanger (the mutating methods panic), so it
// drops into TopK, SpreaderDetector, and the HTTP handlers unchanged.
// Reads of a view are safe from any number of goroutines and, except for
// TotalDistinctMerged's one full cut, lock-free.
type ShardedView struct {
	parent *Sharded
	views  []layer
	full   bool // a FullSnapshot cut: every slot keeps its array words
}

// Snapshot returns the stack's published view; it is never nil. Once
// armed it is one atomic load, and it always reflects every write and
// rotation that completed before the call (read-your-writes: the ?wait=1
// ingestion contract). While no shard is written, repeated calls return the
// same view. The first call arms publication: it takes a cut under every
// shard lock, publishes it, and from then on every write keeps the view
// current. Pure-ingest stacks (never queried) skip publication entirely.
func (s *Sharded) Snapshot() *ShardedView {
	if v := s.set.Load(); v != nil {
		return v
	}
	s.lockAll()
	defer s.unlockAll()
	v := s.set.Load()
	if v == nil { // no other first reader armed it while this one waited
		v = s.cutLocked(layer.view)
		s.set.Store(v)
	}
	return v
}

// publishShard publishes shard t's fresh estimates-only fork: a copy of the
// published view with slot t replaced. Unarmed, it is one atomic load.
// Caller holds shard t's lock, so nothing else can move slot t meanwhile
// (a rotation or cut would need that lock too); the CompareAndSwap retries
// only past writers publishing other shards, and each retry keeps their
// slots. A plain Store would let two writers on different shards each
// publish a copy missing the other's write. Unwritten slots keep their view
// objects.
func (s *Sharded) publishShard(t int) {
	cur := s.set.Load()
	if cur == nil {
		return
	}
	fork := s.shards[t].est.view()
	next := &ShardedView{parent: s, views: make([]layer, len(cur.views))}
	for {
		copy(next.views, cur.views)
		next.views[t] = fork
		if s.set.CompareAndSwap(cur, next) {
			return
		}
		cur = s.set.Load()
	}
}

// lockAll takes every shard lock in ascending order: the one lock order of
// every path that holds more than one shard lock.
func (s *Sharded) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

// unlockAll releases what lockAll took.
func (s *Sharded) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// cutLocked returns a view of fork applied to every shard. Caller holds
// every shard lock, so the cut freezes one epoch and waited at most for the
// absorbs that were in flight.
func (s *Sharded) cutLocked(fork func(layer) layer) *ShardedView {
	v := &ShardedView{parent: s, views: make([]layer, len(s.shards))}
	for i := range s.shards {
		v.views[i] = fork(s.shards[i].est)
	}
	return v
}

// FullSnapshot returns an unpublished cut across every shard whose forks
// keep their array words — each shard's full fork (a sketch's clone; for a
// window, a clone of its current generation and its sealed generations
// shared). It is never nil. Published views (Snapshot) are estimates-only;
// the two readers of array words take this cut instead: a checkpoint,
// which serializes the arrays, and ShardedView.TotalDistinctMerged, which
// unions them. The cut holds every shard lock (in ascending order) while
// it copies each shard's current array and per-user table, so it waits at
// most for the absorbs in flight plus those copies, always freezes one
// epoch, and leaves no copy for a later write; take it at checkpoint
// cadence, not per query.
func (s *Sharded) FullSnapshot() *ShardedView {
	s.lockAll()
	defer s.unlockAll()
	v := s.cutLocked(layer.cut)
	v.full = true
	return v
}

// NumShards returns the number of per-shard views.
func (v *ShardedView) NumShards() int { return len(v.views) }

// ShardView returns shard i's frozen estimator — on a FullSnapshot cut, the
// checkpoint writer serializes these in shard order. A published view's
// are estimates-only: MarshalBinary and Merge refuse them. Treat it as
// read-only.
func (v *ShardedView) ShardView(i int) Estimator { return v.views[i] }

// Epoch returns the window epoch this view froze — every shard sits at it
// — or 0 for non-windowed shards.
func (v *ShardedView) Epoch() int {
	if w, ok := v.views[0].(*Windowed); ok {
		return w.Epoch()
	}
	return 0
}

// Observe implements Estimator; a view is read-only and panics.
func (v *ShardedView) Observe(user, item uint64) {
	panic("streamcard: ShardedView is a read-only snapshot; Observe on the Sharded instead")
}

// ObserveBatch implements Estimator; a view is read-only and panics.
func (v *ShardedView) ObserveBatch(edges []Edge) {
	panic("streamcard: ShardedView is a read-only snapshot; ObserveBatch on the Sharded instead")
}

// Estimate implements Estimator: the queried user's shard view answers.
func (v *ShardedView) Estimate(user uint64) float64 {
	return v.views[v.parent.ShardIndex(user)].Estimate(user)
}

// TotalDistinct implements Estimator (sum of the frozen shard totals).
func (v *ShardedView) TotalDistinct() float64 {
	total := 0.0
	for _, e := range v.views {
		total += e.TotalDistinct()
	}
	return total
}

// MemoryBits implements Estimator (sum across the frozen shards).
func (v *ShardedView) MemoryBits() int64 {
	var m int64
	for _, e := range v.views {
		m += e.MemoryBits()
	}
	return m
}

// Name implements Estimator.
func (v *ShardedView) Name() string { return v.parent.name }

// Users implements AnytimeEstimator: every user exactly once (users
// partition across shards), shards in index order and ascending user IDs
// within each — the same fully deterministic order as Sharded.Users, but
// with no lock held for the duration of the stream: fn may be arbitrarily
// slow, or even call back into the parent Sharded, without stalling ingest.
// On windowed shards the expensive part — each shard's per-user sums,
// sorted — runs on the worker pool first; only the ordered streaming of fn
// stays on this goroutine.
func (v *ShardedView) Users(fn func(user uint64, estimate float64)) {
	if _, ok := v.views[0].(*Windowed); !ok {
		for _, e := range v.views {
			e.Users(fn)
		}
		return
	}
	sorted := make([][]Spreader, len(v.views))
	forEachShard(len(v.views), func(i int) {
		sorted[i] = v.views[i].(*Windowed).sortedSums()
	})
	for _, s := range sorted {
		for _, p := range s {
			fn(p.User, p.Estimate)
		}
	}
}

// RangeUsers implements UserRanger: the unordered counterpart of Users,
// with the same exactly-once fan-out and no sort. On windowed shards the
// epoch's sealed folds are built on the worker pool first, so only the
// streaming stays serial (fn itself is still called serially).
func (v *ShardedView) RangeUsers(fn func(user uint64, estimate float64)) {
	if _, ok := v.views[0].(*Windowed); ok {
		forEachShard(len(v.views), func(i int) { v.views[i].(*Windowed).sealed() })
	}
	for _, e := range v.views {
		e.RangeUsers(fn)
	}
}

// NumUsers implements AnytimeEstimator (sum of per-shard counts; exact,
// since users partition across shards). The per-shard counts — each a
// count of the streamed sums on windowed stacks — run on the worker pool.
func (v *ShardedView) NumUsers() int {
	counts := make([]int, len(v.views))
	forEachShard(len(v.views), func(i int) {
		counts[i] = v.views[i].NumUsers()
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// TotalDistinctMerged returns the shard sketches merged into one union
// sketch and its array-derived, low-variance total. On a FullSnapshot cut
// it merges the cut's own shards, so the total, the cut's TotalDistinct and
// its Epoch describe one instant, and the call takes no lock. A published
// view holds no array words, so there it returns the parent's
// Sharded.TotalDistinctMerged, which merges a FullSnapshot cut taken then:
// at least as fresh as the view, it may include writes and rotations that
// landed after the view was published. That cut holds every shard lock
// while it copies each shard's current array and table, so the call must
// not run under them (a WithOnRetire hook).
// Identically built shards (shared seed) are required, and windowed shards
// must sit at one epoch; otherwise the merge reports ErrIncompatible.
func (v *ShardedView) TotalDistinctMerged() (float64, error) {
	if !v.full {
		return v.parent.TotalDistinctMerged()
	}
	return mergedTotal(v.views)
}

// mergedTotal clones the first of a full cut's shard forks, merges the rest
// into the clone, and returns the union's total. A Windowed accumulator
// folds in place (merge is not failure-atomic), which is safe because the
// clone is private and discarded whole on error.
func mergedTotal(views []layer) (float64, error) {
	acc := views[0].clone()
	for _, e := range views[1:] {
		if err := acc.merge(e); err != nil {
			return 0, err
		}
	}
	return acc.TotalDistinct(), nil
}

var (
	_ Estimator        = (*ShardedView)(nil)
	_ AnytimeEstimator = (*ShardedView)(nil)
	_ UserRanger       = (*ShardedView)(nil)
)
