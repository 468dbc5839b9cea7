package streamcard

import (
	"encoding"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/usertab"
	"repro/internal/window"
)

// Windowed adapts FreeBS or FreeRS to approximate cardinalities over the
// recent past instead of the whole stream — the practical need behind the
// paper's future-work note on monitoring anomalies continuously (a scanner
// from last week should not keep a host flagged today).
//
// It uses k-generation epoch rotation, the standard windowing scheme for
// sketches that do not support deletion: k generations of the underlying
// estimator are kept live, every edge feeds the newest, and each epoch
// boundary discards the oldest and starts a fresh one. Queries sum the live
// generations, so an estimate covers between k−1 and k epochs of history —
// size epochs so that k−1 of them span the window you care about, and the
// slop (extra history, and double counting of pairs re-observed across
// epochs) is bounded by 1/(k−1): 100% for the classic k=2, ≤⅓ for k=4,
// shrinking as k buys finer-grained aging at k× the memory. Within one
// generation duplicates are still free.
//
// Epoch boundaries are pluggable: rotate explicitly (Rotate), by traffic
// volume (WithRotateEveryEdges), or by wall time (WithRotateEvery, checked
// on every observation and on Tick for timer goroutines). All mutation and
// rotation run under one internal lock, so a rotation can never tear a
// batch: an ObserveBatch is attributed wholly to the epoch current when the
// call starts. Windowed is therefore safe for concurrent use; for multi-core
// scaling wrap it per shard — Sharded(Windowed(...)), built without an
// automatic boundary — and advance all shards together with Sharded.Rotate.
//
// The write path is the only lock domain: every read (Estimate,
// TotalDistinct, Users, NumUsers, TopK over the window) is served from an
// atomically published estimates-only snapshot — every live generation's
// per-user table forked copy-on-write, logically frozen as one consistent
// (generations, epoch) cut — so a long user enumeration never holds the
// ring lock, and a rotation publishes the next epoch's snapshot set instead
// of quiescing readers. A view is immutable: it reads its sealed ring
// without taking any lock, so readers sharing it never wait on each other,
// and every mutator panics on it. See Snapshot for the mechanism and the
// freshness contract.
//
// Windowed also supports Users/NumUsers (so TopK and SpreaderDetector run on
// windows), generation-wise Merge/Clone, and MarshalBinary/UnmarshalBinary
// checkpointing of all live generations plus the epoch bookkeeping.
type Windowed struct {
	build func() Estimator // nil-checked wrapper around the user's build
	ring  *window.Ring[Estimator]
	cfg   windowedConfig
	name  string

	// pub is the published snapshot: a frozen *Windowed stamped with the
	// ring version it was taken at. Readers reuse it while the stamp still
	// matches ring.Version() (one atomic load, no lock) and refresh it —
	// O(k) generation snapshots under a brief ring-lock hold — when a write
	// has advanced the version. A frozen view's pub points at itself, so
	// reads on views resolve in one hop.
	pub atomic.Pointer[windowedPub]

	// foldOnce/fold cache userSums on frozen views (built by Snapshot or
	// fullSnapshot on a sealed ring, which never moves): computed at most
	// once per view and served to every later analytics read of that view. A
	// new publication is a new frozen view, so invalidation is automatic —
	// the same pattern as ShardedView's cached merged union.
	foldOnce sync.Once
	fold     *usertab.Table
}

// windowedPub pairs a frozen view with the ring version it freezes.
type windowedPub struct {
	win *Windowed
	ver uint64
}

type windowedConfig struct {
	k         int
	boundary  window.Boundary
	clock     window.Clock
	onRetire  func(Estimator)
	foldStats *FoldStats
}

// WindowedOption configures NewWindowed.
type WindowedOption func(*windowedConfig)

// WithGenerations sets the number of live generations k (default 2, minimum
// 2). The window covers between k−1 and k epochs, so the relative slop is
// 1/(k−1); memory is k live sketches.
func WithGenerations(k int) WindowedOption {
	return func(c *windowedConfig) { c.k = k }
}

// WithRotateEveryEdges rotates automatically once an epoch has absorbed n
// edges — the volume-driven policy. A batch that crosses the boundary is
// attributed wholly to the epoch it started in; rotation happens after it.
// NewSharded refuses windows built with it: a Sharded rotates its windows.
func WithRotateEveryEdges(n uint64) WindowedOption {
	return func(c *windowedConfig) { c.boundary = window.ByEdges{N: n} }
}

// WithRotateEvery rotates automatically once an epoch is d old — the
// wall-time policy. The boundary is checked on every observation; call Tick
// from a timer so epochs also end during traffic lulls. NewSharded refuses
// windows built with it, as with WithRotateEveryEdges.
func WithRotateEvery(d time.Duration) WindowedOption {
	return func(c *windowedConfig) { c.boundary = window.ByDuration{D: d} }
}

// WithWindowClock substitutes the time source used by WithRotateEvery
// (default time.Now); tests use it to drive wall-time epochs
// deterministically.
func WithWindowClock(now func() time.Time) WindowedOption {
	return func(c *windowedConfig) { c.clock = now }
}

// WithOnRetire registers fn to be called with each generation the moment a
// rotation evicts it from the window — a monitor's last chance to read an
// epoch's totals (retired.TotalDistinct(), its user set, ...) before that
// history is discarded, instead of losing it silently. fn runs under the
// window's internal lock on whichever goroutine triggered the rotation, so
// it must be fast and must not call back into the Windowed or the Sharded
// wrapping it (the locks are not reentrant); querying the retired generation
// itself is safe — nothing else references it anymore. Rotations before the
// ring is full retire nothing (the window is still growing), and
// restore-from-checkpoint replaces generations without retiring them. Clones
// inherit the hook.
func WithOnRetire(fn func(retired Estimator)) WindowedOption {
	return func(c *windowedConfig) { c.onRetire = fn }
}

// WithFoldStats scopes the window's fold-cache counters to st, so a serving
// stack can export its own compute/hit counts (the server wires one per
// process into /metrics). Snapshots and clones inherit the same collector.
// Windows built without this option report into a package-level default,
// readable via DefaultFoldStats.
func WithFoldStats(st *FoldStats) WindowedOption {
	return func(c *windowedConfig) { c.foldStats = st }
}

// NewWindowed returns a windowed wrapper; build must return a fresh FreeBS
// or FreeRS (it is called on construction and at every rotation, and
// panics on any other estimator — so NewWindowed itself panics when the
// first generation is not one). Example:
//
//	w := streamcard.NewWindowed(func() streamcard.Estimator {
//	    return streamcard.NewFreeRS(1 << 22)
//	}, streamcard.WithGenerations(4), streamcard.WithRotateEveryEdges(1e6))
func NewWindowed(build func() Estimator, opts ...WindowedOption) *Windowed {
	if build == nil {
		panic("streamcard: NewWindowed requires a build function")
	}
	cfg := windowedConfig{k: 2, boundary: window.Manual{}, clock: time.Now}
	for _, o := range opts {
		o(&cfg)
	}
	return newWindowed(build, cfg)
}

func newWindowed(build func() Estimator, cfg windowedConfig) *Windowed {
	wrapped := func() Estimator {
		switch e := build(); e.(type) {
		case *FreeBS, *FreeRS:
			return e
		case nil:
			panic("streamcard: build returned nil estimator")
		default:
			panic(fmt.Sprintf("streamcard: Windowed generations must be FreeBS or FreeRS, not %s", e.Name()))
		}
	}
	w := &Windowed{build: wrapped, cfg: cfg}
	w.ring = window.New(cfg.k, wrapped,
		window.WithBoundary(cfg.boundary), window.WithClock(cfg.clock))
	if cfg.onRetire != nil {
		w.ring.OnRetire(cfg.onRetire)
	}
	w.ring.View(func(live []Estimator) {
		w.name = fmt.Sprintf("Windowed(%s,k=%d)", live[0].Name(), cfg.k)
	})
	return w
}

// forkFull returns a full copy-on-write fork of a FreeBS, a FreeRS, or a
// Windowed over either. Unlike SnapshotView's estimates-only view it keeps
// the array words, so MarshalBinary and Merge work on it, and the writer
// pays one array copy on its next write. It backs the full cuts that
// checkpoints and merged totals read (Sharded.FullSnapshot).
func forkFull(e Estimator) Estimator {
	switch t := e.(type) {
	case *FreeBS:
		return t.Snapshot()
	case *FreeRS:
		return t.Snapshot()
	}
	return e.(*Windowed).fullSnapshot()
}

// forkView returns a generation's estimates-only view (Snapshotter).
func forkView(e Estimator) Estimator { return e.(Snapshotter).SnapshotView() }

// Snapshot returns an O(1), logically frozen, estimates-only view of the
// whole window — every live generation's per-user table forked
// copy-on-write plus its array statistics, and the epoch bookkeeping; it is
// never nil. The view is itself a *Windowed, so every estimate read
// (Estimate, TotalDistinct, Users, RangeUsers, NumUsers, TopK) works on it
// unchanged and equals the live window's at the same instant bit for bit,
// with no synchronization against ongoing ingestion, and readers of one
// view never lock or wait on each other. The view is immutable: Observe,
// ObserveBatch, Rotate, Tick, UnmarshalBinary and Merge into it panic. It
// carries no array words (see Snapshotter): MarshalBinary on it returns an
// error, Merge from it reports ErrIncompatible, and Clone panics.
// Checkpoint and merge the live Windowed instead, or a
// Sharded.FullSnapshot cut. Taking the view leaves the arrays unshared, so
// the writer's next write pays at most a copy of the current generation's
// per-user table, never of its array.
//
// Snapshots are published: while no write has advanced the ring, repeated
// calls return the same view via one atomic load, and a view taken after a
// write always reflects every Feed and Rotate that completed before the
// call — the read-your-writes contract the serving layer's ?wait=1 relies
// on. Rotation therefore publishes a fresh snapshot set (the next Snapshot
// call observes the new epoch) instead of quiescing readers.
//
// On a standalone Windowed the refresh after a write is paid by whichever
// reader calls Snapshot first (a brief ring-lock hold); per-edge ingest
// stays cheap because nothing is forked until somebody asks. Inside a
// Sharded(Windowed(...)) serving stack the roles invert: the shard's write
// path calls Snapshot itself right after mutating — while it still holds
// the shard lock, so the ring is uncontended — and publishes the result, so
// serving-path readers never pay the refresh (see snapshot.go).
func (w *Windowed) Snapshot() *Windowed {
	if p := w.pub.Load(); p != nil && p.ver == w.ring.Version() {
		return p.win
	}
	var (
		frozen *Windowed
		err    error
	)
	w.ring.ViewStamped(func(gens []Estimator, epoch, edges, v uint64) {
		// Re-check under the lock: a concurrent reader may have already
		// rebuilt the view for this exact version while we waited.
		if p := w.pub.Load(); p != nil && p.ver == v {
			frozen = p.win
			return
		}
		frozen, err = w.freeze(gens, epoch, edges, forkView)
		if err == nil {
			w.pub.Store(&windowedPub{win: frozen, ver: v})
		}
	})
	if err != nil {
		panic(fmt.Sprintf("streamcard: Windowed.Snapshot: %v", err)) // ring invariants guarantee this cannot happen
	}
	return frozen
}

// fullSnapshot is Snapshot's full twin: every live generation forked
// copy-on-write with its array words (FreeBS/FreeRS Snapshot), so
// MarshalBinary and merges work on it. It is never published: each call
// marks the generations' arrays shared, and the writer's next write copies
// the current generation's array once (older generations are never written
// again). Only the full cuts behind checkpoints and merged totals take it.
func (w *Windowed) fullSnapshot() *Windowed {
	var (
		frozen *Windowed
		err    error
	)
	w.ring.ViewStamped(func(gens []Estimator, epoch, edges, _ uint64) {
		frozen, err = w.freeze(gens, epoch, edges, forkFull)
	})
	if err != nil {
		panic(fmt.Sprintf("streamcard: Windowed.fullSnapshot: %v", err)) // ring invariants guarantee this cannot happen
	}
	return frozen
}

// freeze assembles a frozen view from fork applied to every live
// generation, on a sealed ring. The caller holds the ring lock, so the
// forks and the epoch bookkeeping describe one instant.
func (w *Windowed) freeze(gens []Estimator, epoch, edges uint64, fork func(Estimator) Estimator) (*Windowed, error) {
	snaps := make([]Estimator, len(gens))
	for i, g := range gens {
		snaps[i] = fork(g)
	}
	ring, err := window.NewSealed(w.cfg.k, snaps, epoch, edges)
	if err != nil {
		return nil, err
	}
	frozen := &Windowed{build: w.build, ring: ring, cfg: w.cfg, name: w.name}
	// A view answers Snapshot with itself (its ring never moves), so reads
	// routed through Snapshot resolve in one hop on views.
	frozen.pub.Store(&windowedPub{win: frozen, ver: ring.Version()})
	return frozen, nil
}

// mustBeLive panics when w is a view (Snapshot answers a view with
// itself): a view's generations are shared with its readers and its fold
// cache, so it refuses every mutation.
func (w *Windowed) mustBeLive(op string) {
	if p := w.pub.Load(); p != nil && p.win == w {
		panic(fmt.Sprintf("streamcard: %s on a read-only %s snapshot view; call it on the live Windowed", op, w.name))
	}
}

// SnapshotView implements Snapshotter.
func (w *Windowed) SnapshotView() Estimator { return w.Snapshot() }

// Observe implements Estimator (feeds the newest generation).
func (w *Windowed) Observe(user, item uint64) {
	w.mustBeLive("Observe")
	w.ring.Feed(1, func(e Estimator) { e.Observe(user, item) })
}

// ObserveBatch implements Estimator. The batch is attributed to the epoch
// current when the call starts: the ring lock holds off any concurrent
// Rotate or Tick until the whole batch has been absorbed, and an automatic
// boundary the batch crosses takes effect only after it.
func (w *Windowed) ObserveBatch(edges []Edge) {
	w.mustBeLive("ObserveBatch")
	if len(edges) == 0 {
		return
	}
	w.ring.Feed(uint64(len(edges)), func(e Estimator) { e.ObserveBatch(edges) })
}

// Estimate implements Estimator: the sum over live generations, taken over
// the published frozen view — the ring lock is held (if at all) only for
// the O(k) snapshot refresh, never for the read itself, which runs on the
// view's sealed ring without a lock.
func (w *Windowed) Estimate(user uint64) float64 {
	if v := w.Snapshot(); v != w {
		return v.Estimate(user)
	}
	sum := 0.0
	w.ring.View(func(live []Estimator) {
		for _, g := range live {
			sum += g.Estimate(user)
		}
	})
	return sum
}

// TotalDistinct implements Estimator (same windowed semantics and the same
// snapshot routing as Estimate).
func (w *Windowed) TotalDistinct() float64 {
	if v := w.Snapshot(); v != w {
		return v.TotalDistinct()
	}
	sum := 0.0
	w.ring.View(func(live []Estimator) {
		for _, g := range live {
			sum += g.TotalDistinct()
		}
	})
	return sum
}

// MemoryBits implements Estimator (all live generations).
func (w *Windowed) MemoryBits() int64 {
	var sum int64
	w.ring.View(func(live []Estimator) {
		for _, g := range live {
			sum += g.MemoryBits()
		}
	})
	return sum
}

// Name implements Estimator.
func (w *Windowed) Name() string { return w.name }

// Rotate closes the current epoch: the oldest of k live generations is
// discarded, every survivor ages one slot, and a fresh estimator starts
// receiving edges. Explicit-rotation deployments call it once per epoch
// length; automatic policies (WithRotateEveryEdges, WithRotateEvery) call it
// internally.
func (w *Windowed) Rotate() {
	w.mustBeLive("Rotate")
	w.ring.Rotate()
}

// Tick re-checks the rotation policy without observing anything and reports
// whether it rotated. Wall-time deployments call it from a timer so epochs
// also end while no edges arrive; under WithRotateEveryEdges or manual
// rotation it never fires.
func (w *Windowed) Tick() bool {
	w.mustBeLive("Tick")
	return w.ring.Tick()
}

// Epoch returns how many rotations have happened.
func (w *Windowed) Epoch() int { return int(w.ring.Epoch()) }

// Generations returns the configured generation count k.
func (w *Windowed) Generations() int { return w.ring.K() }

// LiveGenerations returns how many generations currently hold data (1 before
// the first rotation, growing to k).
func (w *Windowed) LiveGenerations() int { return w.ring.Live() }

// Users implements AnytimeEstimator: fn is called once per user with a
// nonzero windowed estimate — the sum of that user's estimates across live
// generations — in ascending user order. Cost is O(users log users) time
// and O(users) memory (a flat merge table plus its sort, since one user may
// appear in several generations); RangeUsers skips the sort. The per-user
// fold itself (O(users)) runs over the frozen view, holding no lock at all
// — a slow consumer of fn cannot stall ingestion.
func (w *Windowed) Users(fn func(user uint64, estimate float64)) {
	if v := w.Snapshot(); v != w {
		v.Users(fn)
		return
	}
	w.userSums().SortedRange(fn)
}

// RangeUsers implements UserRanger: the same per-user windowed sums as
// Users, in the merge table's layout order (deterministic per history, not
// sorted). The fold across generations still costs O(users); only Users'
// sort is skipped.
func (w *Windowed) RangeUsers(fn func(user uint64, estimate float64)) {
	if v := w.Snapshot(); v != w {
		v.RangeUsers(fn)
		return
	}
	w.userSums().Range(fn)
}

// NumUsers implements AnytimeEstimator: the number of users with a nonzero
// estimate in any live generation. Costs a full O(users) generation fold;
// UserEntries is the O(k) upper bound for cheap occupancy gauges.
func (w *Windowed) NumUsers() int {
	if v := w.Snapshot(); v != w {
		return v.NumUsers()
	}
	return w.userSums().Len()
}

// UserEntries returns the total number of per-user estimate entries across
// live generations — a user active in g generations contributes g entries,
// so this is an upper bound on NumUsers that costs O(k) map-length reads
// instead of NumUsers' O(users) merge map. Occupancy gauges scraped every
// few seconds want this reading; exact distinct-user counts want NumUsers.
// Deliberately NOT snapshot-routed: the whole point of this reading is
// that a periodic scrape costs O(k) counter loads — forcing a snapshot
// refresh here would make every scrape re-mark the live arrays shared and
// bill the writer a fresh copy-on-write detach for a gauge.
func (w *Windowed) UserEntries() int {
	total := 0
	w.ring.View(func(live []Estimator) {
		for _, g := range live {
			total += g.(AnytimeEstimator).NumUsers()
		}
	})
	return total
}

// foldStatsOut returns the collector this window's fold-cache outcomes are
// counted into: the injected one (WithFoldStats) or the package default.
func (w *Windowed) foldStatsOut() *FoldStats {
	if w.cfg.foldStats != nil {
		return w.cfg.foldStats
	}
	return &defaultFoldStats
}

// userSums returns a frozen view's merged per-user estimate table — only
// views reach it, since Users/RangeUsers/NumUsers on a live window route
// through Snapshot. The fold is computed at most once and cached for the
// view's lifetime: repeated analytics queries within one publication epoch
// re-fold nothing, and the next publication is a new view, so invalidation
// is automatic.
func (w *Windowed) userSums() *usertab.Table {
	hit := true
	w.foldOnce.Do(func() {
		w.runFold()
		hit = false
	})
	if hit {
		w.foldStatsOut().hits.Add(1)
	}
	return w.fold
}

// warmFold populates a frozen view's fold cache if it is still cold,
// counting a compute but never a hit — the shard-concurrent fan-out uses it
// to move fold work onto pool goroutines; the query that follows does the
// counted read.
func (w *Windowed) warmFold() { w.foldOnce.Do(w.runFold) }

// runFold executes the fold under foldOnce.
func (w *Windowed) runFold() {
	w.fold = w.computeUserSums()
	w.foldStatsOut().computes.Add(1)
}

// computeUserSums folds the live generations' per-user estimates into one
// flat table, generation order outermost — the same summation order Estimate
// uses for a single user, so the folded value matches Estimate bit for bit.
// The fold reads each generation through its unordered allocation-free
// iterator; only the result table is allocated, pre-sized to the entry
// upper bound (Σ per-generation entries) so the fold never rehashes.
func (w *Windowed) computeUserSums() *usertab.Table {
	var merged *usertab.Table
	w.ring.View(func(live []Estimator) {
		entries := 0
		for _, g := range live {
			entries += g.(AnytimeEstimator).NumUsers()
		}
		merged = usertab.NewWithCapacity(entries)
		for _, g := range live {
			rangeUsers(g.(AnytimeEstimator), func(u uint64, e float64) { merged.Add(u, e) })
		}
	})
	return merged
}

// Merge folds other into w generation by generation, so each of w's live
// generations summarizes the union of the corresponding epoch's streams;
// other is unchanged. Both windows must have the same generation count and
// be at the same epoch (ErrIncompatible otherwise — merging sketches of
// different epochs would blend different time ranges), their generations
// must be built with identical parameters, and both should be quiescent (no
// concurrent ingestion) for the duration of the call. An estimates-only
// view from Snapshot holds no arrays to union: as other it reports
// ErrIncompatible, and Merge into any view panics. The fold runs on a
// clone of w that replaces w's state only on success, so on error w is
// unchanged.
func (w *Windowed) Merge(other *Windowed) error {
	w.mustBeLive("Merge")
	if other == nil {
		return fmt.Errorf("streamcard: Windowed.Merge(nil): %w", ErrIncompatible)
	}
	if other == w {
		return fmt.Errorf("streamcard: Windowed.Merge with itself: %w", ErrIncompatible)
	}
	merged := w.Clone()
	if err := merged.foldFrom(other); err != nil {
		return err
	}
	gens, epoch, edges := merged.ring.Snapshot()
	_, _, otherEdges := other.ring.Snapshot()
	return w.ring.Adopt(gens, epoch, edges+otherEdges)
}

// foldFrom folds other's generations into w in place: equal generation
// counts, equal epochs, and generations of one type built with identical
// parameters (ErrIncompatible otherwise). It needs no failure atomicity, so
// callers fold into a private clone — Merge adopts the clone on success,
// and Sharded.TotalDistinctMerged folds every shard into one accumulator
// without paying a clone per fold. other must be quiescent (a frozen
// full-cut view).
func (w *Windowed) foldFrom(other *Windowed) error {
	if w.Generations() != other.Generations() {
		return fmt.Errorf("streamcard: windows with k=%d vs k=%d: %w",
			w.Generations(), other.Generations(), ErrIncompatible)
	}
	mine, myEpoch, _ := w.ring.Snapshot()
	theirs, otherEpoch, _ := other.ring.Snapshot()
	if myEpoch != otherEpoch {
		return fmt.Errorf("streamcard: windows at epoch %d vs %d: %w", myEpoch, otherEpoch, ErrIncompatible)
	}
	for i := range mine {
		if err := foldGen(mine[i], theirs[i]); err != nil {
			return fmt.Errorf("streamcard: window generation %d: %w", i, err)
		}
	}
	return nil
}

func foldGen(mine, theirs Estimator) error {
	switch m := mine.(type) {
	case *FreeBS:
		if o, ok := theirs.(*FreeBS); ok {
			return m.Merge(o)
		}
	case *FreeRS:
		if o, ok := theirs.(*FreeRS); ok {
			return m.Merge(o)
		}
	}
	return fmt.Errorf("generation types %s vs %s: %w", mine.Name(), theirs.Name(), ErrIncompatible)
}

// Clone returns an independent deep copy of w: same configuration, every
// live generation cloned, epoch bookkeeping preserved. It panics on an
// estimates-only view from Snapshot, which has no arrays to copy.
func (w *Windowed) Clone() *Windowed {
	gens, epoch, edges := w.ring.Snapshot()
	clones := make([]Estimator, len(gens))
	for i, g := range gens {
		if b, ok := g.(*FreeBS); ok {
			clones[i] = b.Clone()
		} else {
			clones[i] = g.(*FreeRS).Clone()
		}
	}
	ring, err := window.NewAdopted(w.cfg.k, w.build, clones, epoch, edges,
		window.WithBoundary(w.cfg.boundary), window.WithClock(w.cfg.clock))
	if err != nil {
		panic(fmt.Sprintf("streamcard: Windowed.Clone: %v", err)) // ring invariants guarantee this cannot happen
	}
	if w.cfg.onRetire != nil {
		ring.OnRetire(w.cfg.onRetire)
	}
	return &Windowed{build: w.build, ring: ring, cfg: w.cfg, name: w.name}
}

// MarshalBinary serializes every live generation plus the epoch bookkeeping
// through the versioned window envelope in internal/core. It fails on an
// estimates-only view from Snapshot, which has no array words to write.
func (w *Windowed) MarshalBinary() ([]byte, error) {
	gens, epoch, edges := w.ring.Snapshot()
	payloads := make([][]byte, len(gens))
	for i, g := range gens {
		p, err := g.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	return core.MarshalWindow(w.Generations(), epoch, edges, payloads)
}

// UnmarshalBinary restores state produced by MarshalBinary: every live
// generation, the epoch number, and the edges absorbed by the current epoch
// (so an edge-driven rotation policy resumes in lockstep). The receiver must
// be configured with the same generation count as the checkpoint
// (ErrIncompatible otherwise) and a build function matching the
// checkpointed sketches' parameters, so post-restore rotations stay
// compatible. The receiver's previous state is replaced only on success.
// It panics on a view, which is immutable.
func (w *Windowed) UnmarshalBinary(data []byte) error {
	w.mustBeLive("UnmarshalBinary")
	k, epoch, edges, payloads, err := core.UnmarshalWindow(data)
	if err != nil {
		return err
	}
	if k != w.Generations() {
		return fmt.Errorf("streamcard: checkpoint of a k=%d window into a k=%d window: %w",
			k, w.Generations(), ErrIncompatible)
	}
	gens := make([]Estimator, len(payloads))
	for i, p := range payloads {
		g := w.build()
		if err := g.(encoding.BinaryUnmarshaler).UnmarshalBinary(p); err != nil {
			return fmt.Errorf("streamcard: window generation %d: %w", i, err)
		}
		gens[i] = g
	}
	return w.ring.Adopt(gens, epoch, edges)
}

var (
	_ Estimator        = (*Windowed)(nil)
	_ AnytimeEstimator = (*Windowed)(nil)
	_ UserRanger       = (*Windowed)(nil)
	_ Rotator          = (*Windowed)(nil)
)
