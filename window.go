package streamcard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/usertab"
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
// Epochs end on an explicit Rotate, or by traffic volume
// (WithRotateEveryEdges). All mutation and rotation run under one internal
// lock, so a rotation can never tear a batch: an ObserveBatch is attributed
// wholly to the epoch current when the call starts. Windowed is therefore
// safe for concurrent use; for multi-core scaling wrap it per shard —
// Sharded(Windowed(...)), built without WithRotateEveryEdges — and advance
// all shards together with Sharded.Rotate.
//
// The write path is the only lock domain: every read (Estimate,
// TotalDistinct, Users, NumUsers, TopK over the window) is served from an
// estimates-only snapshot view — every live generation's per-user table
// forked copy-on-write, logically frozen as one consistent (generations,
// epoch) cut — so a long user enumeration never holds the window lock, and
// a rotation makes the next read build the next epoch's view instead of
// quiescing readers. A view is itself a frozen *Windowed: its reads take no
// lock, so readers sharing it never wait on each other, and every mutator
// panics on it. See Snapshot for the mechanism and the freshness contract.
//
// Windowed also supports Users/NumUsers (so TopK and SpreaderDetector run on
// windows), generation-wise Merge/Clone, and MarshalBinary/UnmarshalBinary
// checkpointing of all live generations plus the epoch bookkeeping.
type Windowed struct {
	build func() layer // type-checked wrapper around the user's build
	cfg   windowedConfig
	name  string

	// frozen marks a view (Snapshot, fullSnapshot). It is set before the
	// view is shared and never changes; a view's state never moves, so it
	// is read without mu.
	frozen bool

	// mu covers gens, epoch and edges on a live window: every feed,
	// rotation and restore, and the reads that need them to be consistent.
	mu    sync.Mutex
	gens  []layer // live generations, newest first: min(epoch+1, k) of them
	epoch uint64  // rotations performed so far
	edges uint64  // edges attributed to the current epoch

	// pub caches the estimates-only view Snapshot built last. Every
	// mutation clears it under mu, so a non-nil pub always freezes the
	// current state, and Snapshot serves it with one atomic load.
	pub atomic.Pointer[Windowed]
}

type windowedConfig struct {
	k          int
	everyEdges uint64 // WithRotateEveryEdges; 0 rotates only on Rotate
	onRetire   func(Estimator)
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
	return func(c *windowedConfig) { c.everyEdges = n }
}

// WithOnRetire registers fn to be called with each generation the moment a
// rotation evicts it from the window — a monitor's last chance to read an
// epoch's totals (retired.TotalDistinct(), its user set, ...) before that
// history is discarded, instead of losing it silently. fn runs under the
// window's internal lock on whichever goroutine triggered the rotation, so
// it must be fast and must not call back into the Windowed or the Sharded
// wrapping it (the locks are not reentrant); querying the retired generation
// itself is safe — nothing else references it anymore. Rotations before the
// window is full retire nothing (the window is still growing), and
// restore-from-checkpoint replaces generations without retiring them. Clones
// inherit the hook.
func WithOnRetire(fn func(retired Estimator)) WindowedOption {
	return func(c *windowedConfig) { c.onRetire = fn }
}

// NewWindowed returns a windowed wrapper; build must return a fresh FreeBS
// or FreeRS (it is called on construction and at every rotation, and
// panics on any other estimator — so NewWindowed itself panics when the
// first generation is not one). It also panics if build is nil or k < 2.
// Example:
//
//	w := streamcard.NewWindowed(func() streamcard.Estimator {
//	    return streamcard.NewFreeRS(1 << 22)
//	}, streamcard.WithGenerations(4), streamcard.WithRotateEveryEdges(1e6))
func NewWindowed(build func() Estimator, opts ...WindowedOption) *Windowed {
	if build == nil {
		panic("streamcard: NewWindowed requires a build function")
	}
	cfg := windowedConfig{k: 2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.k < 2 {
		panic(fmt.Sprintf("streamcard: Windowed needs at least 2 generations, got %d", cfg.k))
	}
	// A Windowed is a layer too, so the check names the two sketches
	// rather than asserting the contract.
	wrapped := func() layer {
		switch g := build().(type) {
		case *FreeBS:
			return g
		case *FreeRS:
			return g
		case nil:
			panic("streamcard: build returned nil estimator")
		default:
			panic(fmt.Sprintf("streamcard: Windowed generations must be FreeBS or FreeRS, not %s", g.Name()))
		}
	}
	w := &Windowed{build: wrapped, cfg: cfg, gens: make([]layer, 1, cfg.k)}
	w.gens[0] = wrapped()
	w.name = fmt.Sprintf("Windowed(%s,k=%d)", w.gens[0].Name(), cfg.k)
	return w
}

// Snapshot returns an O(1), logically frozen, estimates-only view of the
// whole window — every live generation's per-user table forked
// copy-on-write plus its array statistics, and the epoch bookkeeping; it is
// never nil. The view is itself a *Windowed, so every estimate read
// (Estimate, TotalDistinct, Users, RangeUsers, NumUsers, TopK) works on it
// unchanged and equals the live window's at the same instant bit for bit,
// with no synchronization against ongoing ingestion, and readers of one
// view never lock or wait on each other. A view's Snapshot is the view
// itself. The view is immutable: Observe, ObserveBatch, Rotate,
// UnmarshalBinary and Merge into it panic. It carries no array words:
// MarshalBinary on it returns an error, Merge from it reports
// ErrIncompatible, and Clone panics. Checkpoint and merge the live
// Windowed instead, or a Sharded.FullSnapshot cut. Taking the view leaves
// the arrays unshared, so the writer's next write pays at most a copy of
// the current generation's per-user table, never of its array.
//
// The view is cached: while nothing writes the window, repeated calls
// return the same view via one atomic load. The view itself caches
// nothing: each analytics read folds its frozen generations again. Every
// write, rotation and restore clears the cache under the window lock, so
// a view taken after a write always reflects every Observe, ObserveBatch
// and Rotate that completed before the call — the read-your-writes
// contract the serving layer's ?wait=1 relies on.
//
// On a standalone Windowed the view after a write is built by whichever
// reader calls Snapshot first (a brief window-lock hold); per-edge ingest
// stays cheap because nothing is forked until somebody asks. Inside a
// Sharded(Windowed(...)) serving stack the roles invert: the shard's write
// path calls Snapshot itself right after mutating — while it still holds
// the shard lock, so the window lock is uncontended — and publishes the
// result, so serving-path readers never pay for the view (see snapshot.go).
func (w *Windowed) Snapshot() *Windowed {
	if w.frozen {
		return w
	}
	if v := w.pub.Load(); v != nil {
		return v
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.pub.Load()
	if v == nil { // no other reader built it while this one waited
		v = w.freezeLocked(layer.view)
		w.pub.Store(v)
	}
	return v
}

// fullSnapshot is Snapshot's full twin: every live generation forked
// copy-on-write with its array words (FreeBS/FreeRS Snapshot), so
// MarshalBinary and merges work on it. It is never cached: each call
// marks the generations' arrays shared, and the writer's next write copies
// the current generation's array once (older generations are never written
// again). Only the full cuts behind checkpoints and merged totals take it.
func (w *Windowed) fullSnapshot() *Windowed {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.freezeLocked(layer.cut)
}

// freezeLocked returns a view holding fork applied to every live
// generation. The caller holds the window lock, so the forks and the epoch
// bookkeeping describe one instant.
func (w *Windowed) freezeLocked(fork func(layer) layer) *Windowed {
	v := &Windowed{build: w.build, cfg: w.cfg, name: w.name, frozen: true,
		gens: make([]layer, len(w.gens)), epoch: w.epoch, edges: w.edges}
	for i, g := range w.gens {
		v.gens[i] = fork(g)
	}
	return v
}

// mustBeLive panics when w is a view: a view's generations are shared with
// its readers, so it refuses every mutation.
func (w *Windowed) mustBeLive(op string) {
	if w.frozen {
		panic(fmt.Sprintf("streamcard: %s on a read-only %s snapshot view; call it on the live Windowed", op, w.name))
	}
}

// lock takes the window lock on a live window. A view never changes, so
// its readers skip the lock and never wait on each other.
func (w *Windowed) lock() {
	if !w.frozen {
		w.mu.Lock()
	}
}

// unlock releases what lock took.
func (w *Windowed) unlock() {
	if !w.frozen {
		w.mu.Unlock()
	}
}

// view, cut, clone and merge implement layer: a Windowed shard's views
// and cuts are window views.
func (w *Windowed) view() layer  { return w.Snapshot() }
func (w *Windowed) cut() layer   { return w.fullSnapshot() }
func (w *Windowed) clone() layer { return w.Clone() }

// Observe implements Estimator (feeds the newest generation).
func (w *Windowed) Observe(user, item uint64) {
	w.mustBeLive("Observe")
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens[0].Observe(user, item)
	w.fedLocked(1)
}

// ObserveBatch implements Estimator. The batch is attributed to the epoch
// current when the call starts: the window lock holds off any concurrent
// Rotate until the whole batch has been absorbed, and a
// WithRotateEveryEdges boundary the batch crosses takes effect only after
// it, as one rotation.
func (w *Windowed) ObserveBatch(edges []Edge) {
	w.mustBeLive("ObserveBatch")
	if len(edges) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens[0].ObserveBatch(edges)
	w.fedLocked(uint64(len(edges)))
}

// fedLocked attributes n more edges to the current epoch, rotates once if
// that reached the WithRotateEveryEdges boundary, and clears the cached
// view. The caller holds the window lock.
func (w *Windowed) fedLocked(n uint64) {
	w.edges += n
	if w.cfg.everyEdges > 0 && w.edges >= w.cfg.everyEdges {
		w.rotateLocked()
	}
	w.pub.Store(nil)
}

// Estimate implements Estimator: the sum over live generations, read from
// the view Snapshot returns, so it holds no lock while it sums.
func (w *Windowed) Estimate(user uint64) float64 {
	sum := 0.0
	for _, g := range w.Snapshot().gens {
		sum += g.Estimate(user)
	}
	return sum
}

// TotalDistinct implements Estimator (same windowed semantics and the same
// snapshot routing as Estimate).
func (w *Windowed) TotalDistinct() float64 {
	sum := 0.0
	for _, g := range w.Snapshot().gens {
		sum += g.TotalDistinct()
	}
	return sum
}

// MemoryBits implements Estimator (all live generations).
func (w *Windowed) MemoryBits() int64 {
	w.lock()
	defer w.unlock()
	var sum int64
	for _, g := range w.gens {
		sum += g.MemoryBits()
	}
	return sum
}

// Name implements Estimator.
func (w *Windowed) Name() string { return w.name }

// Rotate closes the current epoch: the oldest of k live generations is
// discarded, every survivor ages one slot, and a fresh estimator starts
// receiving edges. Explicit-rotation deployments call it once per epoch
// length; WithRotateEveryEdges calls it internally.
func (w *Windowed) Rotate() {
	w.mustBeLive("Rotate")
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotateLocked()
}

// rotateLocked builds the next generation first, so a build that panics
// leaves the window as it was. Before the window is full it grows instead
// of retiring. The caller holds the window lock.
func (w *Windowed) rotateLocked() {
	g := w.build()
	if len(w.gens) < w.cfg.k {
		w.gens = append(w.gens, nil)
	} else if w.cfg.onRetire != nil {
		w.cfg.onRetire(w.gens[len(w.gens)-1])
	}
	copy(w.gens[1:], w.gens)
	w.gens[0] = g
	w.epoch++
	w.edges = 0
	w.pub.Store(nil)
}

// install replaces the live state with gens (newest first), epoch and
// edges, and clears the cached view: the restore step of Merge and
// UnmarshalBinary. Both build a valid state first (a merged clone, a
// checkpoint core.UnmarshalWindow checked), so it checks nothing.
func (w *Windowed) install(gens []layer, epoch, edges uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens, w.epoch, w.edges = gens, epoch, edges
	w.pub.Store(nil)
}

// Epoch returns how many rotations have happened.
func (w *Windowed) Epoch() int {
	w.lock()
	defer w.unlock()
	return int(w.epoch)
}

// Generations returns the configured generation count k.
func (w *Windowed) Generations() int { return w.cfg.k }

// LiveGenerations returns how many generations currently hold data (1 before
// the first rotation, growing to k).
func (w *Windowed) LiveGenerations() int {
	w.lock()
	defer w.unlock()
	return len(w.gens)
}

// Users implements AnytimeEstimator: fn is called once per user with a
// nonzero windowed estimate — the sum of that user's estimates across live
// generations — in ascending user order. Cost is O(users log users) time
// and O(users) memory (a flat merge table plus its sort, since one user may
// appear in several generations); RangeUsers skips the sort. The per-user
// fold itself (O(users)) runs over the view Snapshot returns, holding no
// lock at all — a slow consumer of fn cannot stall ingestion.
func (w *Windowed) Users(fn func(user uint64, estimate float64)) {
	w.Snapshot().userSums().SortedRange(fn)
}

// RangeUsers implements UserRanger: the same per-user windowed sums as
// Users, in the merge table's layout order (deterministic per history, not
// sorted). The fold across generations still costs O(users); only Users'
// sort is skipped.
func (w *Windowed) RangeUsers(fn func(user uint64, estimate float64)) {
	w.Snapshot().userSums().Range(fn)
}

// NumUsers implements AnytimeEstimator: the number of users with a nonzero
// estimate in any live generation. Costs a full O(users) generation fold;
// UserEntries is the O(k) upper bound for cheap occupancy gauges.
func (w *Windowed) NumUsers() int {
	return w.Snapshot().userSums().Len()
}

// UserEntries returns the total number of per-user estimate entries across
// live generations — a user active in g generations contributes g entries,
// so this is an upper bound on NumUsers that costs O(k) map-length reads
// instead of NumUsers' O(users) merge map. Occupancy gauges scraped every
// few seconds want this reading; exact distinct-user counts want NumUsers.
// Deliberately NOT snapshot-routed: the whole point of this reading is
// that a periodic scrape costs O(k) counter loads under a brief window-lock
// hold — building a view here would make every scrape mark the live
// per-user tables shared and bill the writer a fresh copy-on-write detach
// for a gauge.
func (w *Windowed) UserEntries() int {
	w.lock()
	defer w.unlock()
	total := 0
	for _, g := range w.gens {
		total += g.NumUsers()
	}
	return total
}

// userSums folds a view's generations' per-user estimates into one flat
// table, generation order outermost — the same summation order Estimate
// uses for a single user, so the folded value matches Estimate bit for bit.
// Only views reach it, since Users/RangeUsers/NumUsers read through
// Snapshot, and every call folds afresh. The fold reads each generation
// through its unordered allocation-free iterator; only the result table is
// allocated, pre-sized to the entry upper bound (UserEntries) so the fold
// never rehashes.
func (w *Windowed) userSums() *usertab.Table {
	merged := usertab.NewWithCapacity(w.UserEntries())
	for _, g := range w.gens {
		g.RangeUsers(func(u uint64, e float64) { merged.Add(u, e) })
	}
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
	if err := merged.merge(other); err != nil {
		return err
	}
	w.install(merged.gens, merged.epoch, merged.edges+other.edges)
	return nil
}

// merge folds other's generations into w in place: other must be a
// Windowed with an equal generation count, at the same epoch, over
// generations built with identical parameters (ErrIncompatible otherwise).
// Unlike Merge it is not failure-atomic, so callers fold into a private
// clone — Merge installs the clone on success, and mergedTotal folds
// every shard into one accumulator without paying a clone per fold. other
// must be quiescent (a frozen full-cut view).
func (w *Windowed) merge(other layer) error {
	o, ok := other.(*Windowed)
	if !ok {
		return fmt.Errorf("streamcard: merging %s into %s: %w", other.Name(), w.name, ErrIncompatible)
	}
	if w.cfg.k != o.cfg.k {
		return fmt.Errorf("streamcard: windows with k=%d vs k=%d: %w",
			w.cfg.k, o.cfg.k, ErrIncompatible)
	}
	if w.epoch != o.epoch {
		return fmt.Errorf("streamcard: windows at epoch %d vs %d: %w", w.epoch, o.epoch, ErrIncompatible)
	}
	for i, g := range w.gens {
		if err := g.merge(o.gens[i]); err != nil {
			return fmt.Errorf("streamcard: window generation %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns an independent deep copy of w: same configuration, every
// live generation cloned, epoch bookkeeping preserved. On a live window it
// copies under the window lock, so it is safe against concurrent writers.
// It panics on an estimates-only view from Snapshot, which has no arrays
// to copy.
func (w *Windowed) Clone() *Windowed {
	w.lock()
	defer w.unlock()
	gens := make([]layer, len(w.gens), w.cfg.k)
	for i, g := range w.gens {
		gens[i] = g.clone()
	}
	return &Windowed{build: w.build, cfg: w.cfg, name: w.name, gens: gens, epoch: w.epoch, edges: w.edges}
}

// MarshalBinary serializes every live generation plus the epoch bookkeeping
// through the versioned window envelope in internal/core. On a live window
// it serializes a full copy-on-write cut (fullSnapshot), so it is safe
// against concurrent writers, and the writer's next write pays one array
// copy, as after a checkpoint cut. It fails on an estimates-only view from
// Snapshot, which has no array words to write.
func (w *Windowed) MarshalBinary() ([]byte, error) {
	v := w
	if !w.frozen {
		v = w.fullSnapshot()
	}
	payloads := make([][]byte, len(v.gens))
	for i, g := range v.gens {
		p, err := g.MarshalBinary()
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	return core.MarshalWindow(v.cfg.k, v.epoch, v.edges, payloads)
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
	if k != w.cfg.k {
		return fmt.Errorf("streamcard: checkpoint of a k=%d window into a k=%d window: %w",
			k, w.cfg.k, ErrIncompatible)
	}
	gens := make([]layer, len(payloads), k)
	for i, p := range payloads {
		g := w.build()
		if err := g.UnmarshalBinary(p); err != nil {
			return fmt.Errorf("streamcard: window generation %d: %w", i, err)
		}
		gens[i] = g
	}
	w.install(gens, epoch, edges)
	return nil
}

var _ layer = (*Windowed)(nil)
