package streamcard

// The sharded read path. Every query surface of Sharded — Estimate, totals,
// user enumeration, top-k — is served from a ShardedView: a set of
// per-shard frozen snapshots published through atomic pointers and
// assembled into one epoch-consistent cut. Queries never hold the shard
// locks: the write path (Observe, ObserveBatch, Rotate) publishes each
// shard's fresh snapshot as it releases the shard lock, so view assembly is
// pure atomic loads even while a 65k-edge batch is mid-absorb. (An earlier
// design made the *reader* refresh a stale snapshot under the shard lock,
// which queued every query issued during a large ObserveBatch behind the
// whole batch — tens of milliseconds per query under continuous ingest.
// That locked refresh survives only as shardView's fallback for shards that
// were mutated before any reader existed, or out of band.) This is the
// architecture time-series storage engines use for cardinality serving —
// immutable snapshots so reads never stall writes — and it makes the write
// path the only lock domain in the stack.
//
// Published snapshots are estimates-only (Snapshotter): each shard's
// per-user table forked copy-on-write plus its array's maintained
// statistics, never the array words, so publishing on every write costs
// the writer no array copy. The two readers of array words — checkpoints
// and the merged union total — take FullSnapshot, an unpublished cut of
// full copy-on-write forks, at their own cadence.
//
// Consistency: a view's shards are always each a valid frozen prefix of
// their own sub-stream (users partition across shards, so there is no
// cross-shard ordering to tear), and when the shards are windowed the view
// additionally freezes ONE epoch: assembly re-reads shards until all report
// the same epoch, escalating after a few lock-free attempts to a fully
// locked cut (all shard locks, ordered, under the same rotation mutex
// Sharded.Rotate holds), so a rotation in flight can delay a query by
// microseconds but can never leak a torn pre/post-rotation mix into it.
// Stacks whose shards rotate themselves independently (per-shard ByEdges /
// ByDuration boundaries) have no common epoch to freeze; their views are
// marked epoch-inconsistent and the merged total reports ErrIncompatible.

import (
	"fmt"
	"runtime"
	"sync"
)

// shardSnap is one shard's published snapshot: a frozen estimator stamped
// with the shard's mutation version, plus the window epoch it froze (when
// the shard is windowed).
type shardSnap struct {
	view     Estimator
	ver      uint64
	epoch    uint64
	windowed bool

	// src/srcVer guard against mutations that bypass the shard lock: a
	// windowed shard rotated (or fed) directly, not through the Sharded,
	// advances its ring version without touching sh.ver, and the shard's
	// version stamp alone would keep serving the pre-mutation snapshot as
	// fresh. srcVer is the ring version read before the snapshot was taken
	// (conservative: a racing out-of-band write makes the stamp stale, never
	// wrongly fresh). src is nil for non-windowed shards.
	src    *Windowed
	srcVer uint64
}

// srcFresh reports whether the snapshot's source ring (if any) is still at
// the version the snapshot froze.
func (p *shardSnap) srcFresh() bool {
	return p.src == nil || p.src.ring.Version() == p.srcVer
}

// estSnapshottable reports whether a shard estimator supports O(1)
// copy-on-write snapshots.
func estSnapshottable(e Estimator) bool {
	switch t := e.(type) {
	case *FreeBS, *FreeRS:
		return true
	case *Windowed:
		return t.canSnap
	}
	return false
}

// publishLocked refreshes the shard's published snapshot, an
// estimates-only view (Snapshotter): publishing it never makes the next
// write copy the shard's array. Caller holds sh.mu; the shard estimator
// must be snapshottable. It is called by the write path as it releases the
// lock (so readers find a fresh snapshot waiting) and by shardView's
// fallback for snapshots staled out of band.
func (sh *shard) publishLocked() *shardSnap {
	if p := sh.snap.Load(); p != nil && p.ver == sh.ver.Load() && p.srcFresh() {
		return p // already current — nothing was written since
	}
	var src *Windowed
	var srcVer uint64
	if w, ok := sh.est.(*Windowed); ok {
		// Stamp before snapshotting: an out-of-band write racing in between
		// makes the stamp stale, which is the safe direction.
		src, srcVer = w, w.ring.Version()
	}
	p := sh.snapLocked(sh.est.(Snapshotter).SnapshotView())
	p.src, p.srcVer = src, srcVer
	sh.snap.Store(p)
	return p
}

// snapLocked stamps a frozen fork of the shard with the shard's version
// and, when the shard is windowed, the epoch the fork froze. Caller holds
// sh.mu.
func (sh *shard) snapLocked(view Estimator) *shardSnap {
	p := &shardSnap{view: view, ver: sh.ver.Load()}
	if w, ok := view.(*Windowed); ok {
		p.epoch = uint64(w.Epoch())
		p.windowed = true
	}
	return p
}

// shardView returns shard i's current snapshot. On the serving path this is
// one atomic load: the write path published a fresh snapshot as it released
// the shard lock, so the stamp check succeeds even while another batch is
// absorbing. The locked refresh below is the fallback for snapshots that
// went stale without a publication — a shard written before any reader
// armed publication (Sharded.Snapshot arms it on first use), or a windowed
// shard mutated out of band (srcFresh) — and costs one brief lock hold; the
// snapshot itself is an O(1) estimates-only fork either way, with the writer
// paying the lazy per-user table copy on its next write.
func (s *Sharded) shardView(i int) *shardSnap {
	sh := &s.shards[i]
	if p := sh.snap.Load(); p != nil && p.ver == sh.ver.Load() && p.srcFresh() {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.publishLocked()
}

// ShardedView is one epoch-consistent frozen cut across every shard — the
// unit all sharded queries are answered from. It implements the full read
// side of AnytimeEstimator/UserRanger (the mutating methods panic), so it
// drops into TopK, SpreaderDetector, and the HTTP handlers unchanged.
// Reads of a view are safe from any number of goroutines and, except for
// TotalDistinctMerged's one full cut, lock-free.
type ShardedView struct {
	parent *Sharded
	views  []Estimator
	// snaps are the per-shard snapshots the view was assembled from, kept
	// for freshness checks (version stamp plus the out-of-band srcFresh
	// guard); views duplicates their estimators so the read hot path skips
	// one indirection.
	snaps      []*shardSnap
	epoch      uint64
	windowed   bool
	consistent bool
	// settled marks an epoch-inconsistent view produced with rotations
	// excluded (the fully locked cut): the inconsistency is genuine drift
	// (shards rotating themselves on per-shard boundaries), not a rotation
	// caught mid-fan-out, so there is no better cut to wait for.
	settled bool

	// The merged union total is cached on the view: repeated /total queries
	// against the same published cut merge once. A new publication is a new
	// ShardedView, so invalidation is automatic.
	mergedOnce sync.Once
	merged     float64
	mergedErr  error
}

// fresh reports whether the view still reflects every shard's current
// version (and froze a consistent epoch, when that is achievable at all —
// a settled-inconsistent view of a genuinely drifting stack stays fresh
// until a version moves, since epochs cannot change without one).
func (v *ShardedView) fresh(s *Sharded) bool {
	if v.windowed && !v.consistent && !v.settled {
		return false
	}
	for i := range v.snaps {
		if p := v.snaps[i]; p.ver != s.shards[i].ver.Load() || !p.srcFresh() {
			return false
		}
	}
	return true
}

// snapshotRetries is how many lock-free assembly attempts Snapshot makes
// before escalating to the fully locked cut. A rotation fan-out completes
// in microseconds, so lock-free retries almost always win first.
const snapshotRetries = 4

// Snapshot returns the current epoch-consistent view of all shards, or nil
// when the shard estimators do not support snapshots (callers fall back to
// locked reads). While no shard has been written, repeated calls return the
// same published view — which is what makes the per-view caches (the merged
// total) effective — and a call after a completed write always reflects it
// (read-your-writes: the ?wait=1 ingestion contract).
func (s *Sharded) Snapshot() *ShardedView {
	if !s.snapshottable {
		return nil
	}
	if !s.readers.Load() {
		// First reader arms writer-side publication: from here on every
		// write publishes its shard's fresh snapshot as it releases the
		// lock, so assembly below is pure atomic loads. Pure-ingest stacks
		// (never queried) skip publication entirely. The load-then-store
		// keeps the common case a read of an already-set flag instead of a
		// contended write.
		s.readers.Store(true)
	}
	prev := s.set.Load()
	if prev != nil && prev.fresh(s) {
		return prev
	}
	for attempt := 0; ; attempt++ {
		v, ok := s.collect()
		switch {
		case ok:
			// One consistent epoch, assembled lock-free.
		case prev != nil && prev.windowed && !prev.consistent:
			// The stack is already diagnosed as genuinely drifting
			// (per-shard self-rotation — only collectLocked stores an
			// inconsistent view, and it marks the diagnosis settled):
			// epoch mixes are its permanent condition, so serve the
			// lock-free cut instead of paying the locked assembly on
			// every read.
			v.settled = true
		case attempt < snapshotRetries:
			runtime.Gosched() // a rotation is mid-fan-out; let it finish
			continue
		default:
			// Distinguish a slow rotation from genuine drift: with
			// rotations excluded, a lockstep stack must settle on one
			// epoch; what still disagrees is truthfully inconsistent.
			v = s.collectLocked()
		}
		return s.publishView(prev, v)
	}
}

// publishView installs v as the published cross-shard view, guarding
// against the last-writer-wins race: two assemblers can both find the set
// view stale, collect, and store — and with a plain Store the slower (and
// possibly staler) assembler would overwrite the faster one's view,
// discarding its cached merged total and, worse, publishing a cut that
// predates writes the overwritten view already reflected. CompareAndSwap
// against the prev pointer the assembler started from means only one of the
// racers installs; the loser checks whether the winner's view is fresh and
// adopts it, and otherwise returns its own view unpublished — v was
// collected after the caller's own writes, so read-your-writes holds for
// the caller either way, and no retry loop is needed (a livelock under
// heavy write traffic, for a cache whose next reader rebuilds anyway).
func (s *Sharded) publishView(prev, v *ShardedView) *ShardedView {
	if s.set.CompareAndSwap(prev, v) {
		return v
	}
	if cur := s.set.Load(); cur != nil && cur.fresh(s) {
		return cur
	}
	return v
}

// assemble builds a view by reading each shard's snapshot through get,
// tracking the windowed-epoch consistency bookkeeping shared by the
// lock-free and fully locked assembly paths.
func (s *Sharded) assemble(get func(i int) *shardSnap) *ShardedView {
	n := len(s.shards)
	v := &ShardedView{
		parent:     s,
		views:      make([]Estimator, n),
		snaps:      make([]*shardSnap, n),
		consistent: true,
	}
	first := true
	for i := range s.shards {
		p := get(i)
		v.views[i], v.snaps[i] = p.view, p
		if p.windowed {
			v.windowed = true
			if first {
				v.epoch, first = p.epoch, false
			} else if p.epoch != v.epoch {
				v.consistent = false
			}
		}
	}
	return v
}

// collect assembles a view lock-free (per-shard fast paths; a brief shard
// lock only where a shard's snapshot is stale). ok is false when windowed
// shards reported different epochs — a rotation was caught mid-fan-out.
func (s *Sharded) collect() (v *ShardedView, ok bool) {
	v = s.assemble(s.shardView)
	return v, v.consistent
}

// lockedCut assembles a view under the rotation mutex plus every shard
// lock (ascending order — no other path holds two shard locks, so this
// cannot deadlock), with get called under those locks: with rotations
// excluded, a lockstep stack always yields one consistent epoch. It is the
// cut behind both collectLocked and FullSnapshot, and waits at most for the
// absorbs in flight.
func (s *Sharded) lockedCut(get func(sh *shard) *shardSnap) *ShardedView {
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	return s.assemble(func(i int) *shardSnap { return get(&s.shards[i]) })
}

// collectLocked assembles a published view through lockedCut. Only
// independently self-rotating shards can still disagree on the epoch here,
// and then the view is marked settled: truthfully inconsistent with nothing
// to wait for, so later reads of the unchanged stack reuse it instead of
// re-escalating.
func (s *Sharded) collectLocked() *ShardedView {
	v := s.lockedCut((*shard).publishLocked)
	if !v.consistent {
		v.settled = true
	}
	return v
}

// FullSnapshot returns an unpublished cut across every shard whose forks
// keep their array words — each shard's full copy-on-write Snapshot — or
// nil when the shard estimators do not support snapshots. Published views
// (Snapshot) are estimates-only; the two readers of array words take this
// cut instead: a checkpoint, which serializes the arrays, and
// ShardedView.TotalDistinctMerged, which unions them. The cut runs under
// the rotation mutex and every shard lock, so it waits at most for the
// absorbs in flight and always freezes one epoch on a lockstep stack. Each
// shard then pays one array copy, on its next write to the current
// generation; take the cut at checkpoint cadence, not per query.
func (s *Sharded) FullSnapshot() *ShardedView {
	if !s.snapshottable {
		return nil
	}
	return s.lockedCut(func(sh *shard) *shardSnap { return sh.snapLocked(forkFull(sh.est)) })
}

// NumShards returns the number of per-shard views.
func (v *ShardedView) NumShards() int { return len(v.views) }

// ShardView returns shard i's frozen estimator — on a FullSnapshot cut, the
// checkpoint writer serializes these in shard order. A published view's
// are estimates-only (see Snapshotter). Treat it as read-only.
func (v *ShardedView) ShardView(i int) Estimator { return v.views[i] }

// Epoch returns the window epoch this view froze (0 for non-windowed
// shards). Meaningful when EpochConsistent reports true.
func (v *ShardedView) Epoch() int { return int(v.epoch) }

// EpochConsistent reports whether every windowed shard froze the same epoch
// in this view. It is always true for views of lockstep stacks (rotations
// issued through Sharded.Rotate) and for non-windowed shards; only shards
// rotating themselves independently can make it false.
func (v *ShardedView) EpochConsistent() bool { return !v.windowed || v.consistent }

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

// anytime narrows shard i's view, panicking with the aggregate method's
// name on estimators that keep no per-user estimates (same contract as the
// locked Sharded aggregations).
func (v *ShardedView) anytime(i int, method string) AnytimeEstimator {
	a, ok := v.views[i].(AnytimeEstimator)
	if !ok {
		panic(fmt.Sprintf("streamcard: ShardedView.%s needs AnytimeEstimator shards (FreeBS/FreeRS/Windowed), not %s", method, v.views[i].Name()))
	}
	return a
}

// Users implements AnytimeEstimator: every user exactly once (users
// partition across shards), shards in index order and ascending user IDs
// within each — the same fully deterministic order as Sharded.Users, but
// with no lock held for the duration of the stream: fn may be arbitrarily
// slow, or even call back into the parent Sharded, without stalling ingest.
// The expensive part — each shard's cross-generation window fold — is
// pre-warmed on the worker pool first; only the ordered streaming of fn
// stays on this goroutine.
func (v *ShardedView) Users(fn func(user uint64, estimate float64)) {
	v.prepareFolds()
	for i := range v.views {
		v.anytime(i, "Users").Users(fn)
	}
}

// RangeUsers implements UserRanger: the unordered allocation-free
// counterpart of Users, same exactly-once fan-out and the same parallel
// fold pre-warm (fn itself is still called serially).
func (v *ShardedView) RangeUsers(fn func(user uint64, estimate float64)) {
	v.prepareFolds()
	for i := range v.views {
		rangeUsers(v.anytime(i, "RangeUsers"), fn)
	}
}

// NumUsers implements AnytimeEstimator (sum of per-shard counts; exact,
// since users partition across shards). The per-shard counts — each a
// window fold on windowed stacks — run on the worker pool.
func (v *ShardedView) NumUsers() int {
	n := len(v.views)
	ests := make([]AnytimeEstimator, n)
	for i := range ests {
		ests[i] = v.anytime(i, "NumUsers")
	}
	counts := make([]int, n)
	forEachShard(n, func(i int) {
		counts[i] = ests[i].NumUsers()
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// TotalDistinctMerged merges the shard sketches into one union sketch and
// returns its array-derived total — the low-variance reading
// TotalDistinctMerged on the Sharded serves. A published view holds no
// array words, so the first call merges a FullSnapshot cut of the parent
// taken then: at least as fresh as the view, it may include writes that
// landed after the view was published. The result is cached on the view:
// as long as no shard is written, repeated calls pay one cut and one merge
// in total. Taking the cut holds the rotation mutex and every shard lock
// briefly, so the call must not run under them (a WithOnRetire hook).
// Requirements are unchanged: identically built shards (shared seed), and
// for windowed shards one common epoch — an epoch-inconsistent view or cut
// reports ErrIncompatible.
func (v *ShardedView) TotalDistinctMerged() (float64, error) {
	v.mergedOnce.Do(func() {
		cut := v
		if v.EpochConsistent() {
			cut = v.parent.FullSnapshot()
		}
		if !cut.EpochConsistent() {
			v.mergedErr = fmt.Errorf("streamcard: shards at different epochs: %w", ErrIncompatible)
			return
		}
		v.merged, v.mergedErr = mergeEstimators(cut.views)
	})
	return v.merged, v.mergedErr
}

// mergeEstimators clones the first estimator and folds the rest in, over
// an already frozen slice of full forks.
func mergeEstimators(views []Estimator) (float64, error) {
	switch views[0].(type) {
	case *FreeBS:
		return mergeViewsTyped(views, func(e Estimator) (*FreeBS, bool) { f, ok := e.(*FreeBS); return f, ok })
	case *FreeRS:
		return mergeViewsTyped(views, func(e Estimator) (*FreeRS, bool) { f, ok := e.(*FreeRS); return f, ok })
	case *Windowed:
		return mergeWindowedViews(views)
	default:
		return 0, fmt.Errorf("streamcard: %s shards are not mergeable: %w",
			views[0].Name(), ErrIncompatible)
	}
}

// mergeViewsTyped clones the first view and folds the rest in, generic
// over the shared mergeable constraint.
func mergeViewsTyped[T mergeable[T]](views []Estimator, cast func(Estimator) (T, bool)) (float64, error) {
	var combined T
	for i, e := range views {
		est, ok := cast(e)
		if !ok {
			return 0, fmt.Errorf("streamcard: shard %d is not %T: %w", i, combined, ErrIncompatible)
		}
		if i == 0 {
			combined = est.Clone()
		} else if err := combined.Merge(est); err != nil {
			return 0, err
		}
	}
	return combined.TotalDistinct(), nil
}

// mergeWindowedViews folds frozen windowed shard views generation by
// generation into a private clone of the first (foldFrom: no per-fold
// atomicity cost — on error the accumulator is discarded whole).
func mergeWindowedViews(views []Estimator) (float64, error) {
	var combined *Windowed
	for i, e := range views {
		w, ok := e.(*Windowed)
		if !ok {
			return 0, fmt.Errorf("streamcard: shard %d is not *Windowed: %w", i, ErrIncompatible)
		}
		if i == 0 {
			combined = w.Clone()
			continue
		}
		if err := combined.foldFrom(w); err != nil {
			return 0, err
		}
	}
	return combined.TotalDistinct(), nil
}

var (
	_ Estimator        = (*ShardedView)(nil)
	_ AnytimeEstimator = (*ShardedView)(nil)
	_ UserRanger       = (*ShardedView)(nil)
)
