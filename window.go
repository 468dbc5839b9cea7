package streamcard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/hashing"
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
// Reads come in two kinds. A point read (Estimate, TotalDistinct) sums the
// live generations under the window lock: O(k) probes, nothing forked, so
// writes and point reads can alternate at per-edge cost. An enumeration
// (Users, RangeUsers, NumUsers, TopK over the window) runs on a fresh
// estimates-only view — the current generation's per-user table forked
// copy-on-write and the sealed generations themselves, which nothing
// writes again before they retire, logically frozen as one consistent
// (generations, epoch) cut — so a long user enumeration never holds the
// window lock. A view is itself a frozen *Windowed: its reads take no
// lock, so readers sharing it never wait on each other, and every mutator
// panics on it. A window caches no view; a serving stack keeps its one
// published view in the Sharded above it. See Snapshot for the mechanism
// and the freshness contract.
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

	// fold is the epoch's fold of the sealed generations gens[1:], shared
	// by every view and cut of the epoch and built by the first analytics
	// read. Every path that changes gens[1:] replaces it: rotation and
	// restore under mu, merge on the private clone it folds into. A view's
	// never changes.
	fold *sealedFold
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
// wrapping it (the locks are not reentrant). fn may only read the retired
// generation: views and cuts taken before the rotation share it and may
// still be reading it, so fn must not write, merge into or restore it.
// Rotations before the window is full retire nothing (the window is still
// growing), and restore-from-checkpoint replaces generations without
// retiring them. Clones inherit the hook.
func WithOnRetire(fn func(retired Estimator)) WindowedOption {
	return func(c *windowedConfig) { c.onRetire = fn }
}

// NewWindowed returns a windowed wrapper; build must return a fresh FreeBS
// or FreeRS (it is called on construction and at every rotation, and
// panics on any other estimator — so NewWindowed itself panics when the
// first generation is not one). It also panics if build is nil, or if k
// is below 2 or above 65,536 (core.MaxWindowGenerations), the most
// generations a checkpoint can hold.
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
	if cfg.k < 2 || cfg.k > core.MaxWindowGenerations {
		panic(fmt.Sprintf("streamcard: Windowed needs 2 to %d generations, got %d", core.MaxWindowGenerations, cfg.k))
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
	w := &Windowed{build: wrapped, cfg: cfg, gens: make([]layer, 1, cfg.k), fold: new(sealedFold)}
	w.gens[0] = wrapped()
	w.name = fmt.Sprintf("Windowed(%s,k=%d)", w.gens[0].Name(), cfg.k)
	return w
}

// Snapshot returns an O(1), logically frozen, estimates-only view of the
// whole window — the current generation's per-user table forked
// copy-on-write plus its array statistics, the sealed generations
// themselves (shared, since nothing writes them again before they retire),
// and the epoch bookkeeping; it is never nil. The view is itself a
// *Windowed, so every estimate read (Estimate, TotalDistinct, Users,
// RangeUsers, NumUsers, TopK) works on it unchanged and equals the live
// window's at the same instant bit for bit, with no synchronization against
// ongoing ingestion, and readers of one view never lock or wait on each
// other. A view's Snapshot is the view itself. The view is immutable:
// Observe, ObserveBatch, Rotate, UnmarshalBinary and Merge into it panic.
// It carries no array words: MarshalBinary on it returns an error, Merge
// from it reports ErrIncompatible, and Clone panics. Checkpoint and merge
// the live Windowed instead, or a Sharded.FullSnapshot cut. Taking the view
// copies no array, and the writer's next write pays at most a copy of the
// current generation's per-user table; the view costs the same at any k.
//
// Each call on a live window builds a new view under a brief window-lock
// hold, so the view reflects every Observe, ObserveBatch and Rotate that
// completed before the call — the read-your-writes contract the serving
// layer's ?wait=1 relies on. Nothing caches it: keep a view for as long as
// its reads should agree, and take a new one to see later writes. A write
// moves only the current generation, so every view of one epoch shares the
// window's fold of its sealed generations: the epoch's first analytics
// read (Users, RangeUsers, NumUsers, TopK) builds it once, and a rotation
// or restore starts the next epoch's.
//
// On a standalone Windowed only enumerations and explicit Snapshot calls
// build a view; point reads sum the live generations, so per-edge ingest
// interleaved with point reads forks nothing. Inside a
// Sharded(Windowed(...)) serving stack the shard's write path calls
// Snapshot itself right after mutating — while it still holds the shard
// lock, so the window lock is uncontended — and publishes the result in
// the Sharded's view, so serving-path readers never pay for the view (see
// snapshot.go).
func (w *Windowed) Snapshot() *Windowed {
	if w.frozen {
		return w
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.freezeLocked(layer.view)
}

// fullSnapshot is Snapshot's full twin: a clone of the current generation
// (its array and per-user table copied) and the sealed generations shared,
// so MarshalBinary and merges work on it. Each call copies one array and
// one table under the window lock and leaves the writer nothing to copy.
// Only the full cuts behind checkpoints and merged totals take it.
func (w *Windowed) fullSnapshot() *Windowed {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.freezeLocked(layer.cut)
}

// freezeLocked returns a view holding fork of the current generation, the
// sealed generations themselves and the epoch's sealed fold. The caller
// holds the window lock, so the fork and the epoch bookkeeping describe one
// instant. Sharing gens[1:] is safe because nothing writes a sealed
// generation: feeds write only gens[0], rotation and install move or
// replace pointers, and merge writes only private deep clones.
func (w *Windowed) freezeLocked(fork func(layer) layer) *Windowed {
	v := &Windowed{build: w.build, cfg: w.cfg, name: w.name, frozen: true,
		gens: slices.Clone(w.gens), epoch: w.epoch, edges: w.edges, fold: w.fold}
	v.gens[0] = fork(w.gens[0])
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

// fedLocked attributes n more edges to the current epoch and rotates once
// if that reached the WithRotateEveryEdges boundary. The caller holds the
// window lock.
func (w *Windowed) fedLocked(n uint64) {
	w.edges += n
	if w.cfg.everyEdges > 0 && w.edges >= w.cfg.everyEdges {
		w.rotateLocked()
	}
}

// Estimate implements Estimator: the sum over live generations, newest
// first. A live window sums under the window lock — O(k) probes, nothing
// forked — and a view sums its frozen generations with no lock; both add
// the same values in the same order, so they agree bit for bit.
func (w *Windowed) Estimate(user uint64) float64 {
	w.lock()
	defer w.unlock()
	sum := 0.0
	for _, g := range w.gens {
		sum += g.Estimate(user)
	}
	return sum
}

// TotalDistinct implements Estimator (the same windowed sum and locking as
// Estimate).
func (w *Windowed) TotalDistinct() float64 {
	w.lock()
	defer w.unlock()
	sum := 0.0
	for _, g := range w.gens {
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
	w.fold = new(sealedFold)
}

// install replaces the live state with gens (newest first), epoch and
// edges, and starts a fresh sealed fold: the restore step of Merge and
// UnmarshalBinary. Both build a valid state first (a merged clone, a
// checkpoint core.UnmarshalWindow checked), so it checks nothing.
func (w *Windowed) install(gens []layer, epoch, edges uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens, w.epoch, w.edges = gens, epoch, edges
	w.fold = new(sealedFold)
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

// Users implements AnytimeEstimator: fn is called once per user present
// in any live generation, with the sum of that user's estimates across
// live generations — bit for bit its Estimate — in ascending user order.
// It streams RangeUsers' pairs into one slice and sorts it: O(users log
// users) time and 16 bytes per user. The enumeration runs over the view
// Snapshot returns, holding no lock at all — a slow consumer of fn cannot
// stall ingestion.
func (w *Windowed) Users(fn func(user uint64, estimate float64)) {
	for _, p := range w.Snapshot().sortedSums() {
		fn(p.User, p.Estimate)
	}
}

// RangeUsers implements UserRanger: the same per-user windowed sums as
// Users, unsorted: the current generation's users in its table's layout
// order, then the users only the sealed generations hold, in the epoch's
// fold order (deterministic per history). It builds no per-user table:
// each current-generation user costs one probe of the sealed fold's
// index, and a sealed-only user costs none. The epoch's first analytics
// read builds the fold, O(sealed entries); every later read of the epoch
// reuses it.
func (w *Windowed) RangeUsers(fn func(user uint64, estimate float64)) {
	w.Snapshot().rangeSums(fn)
}

// NumUsers implements AnytimeEstimator: the number of users present in
// any live generation, counted as RangeUsers streams them; UserEntries is
// the O(k) upper bound for cheap occupancy gauges.
func (w *Windowed) NumUsers() int {
	n := 0
	w.RangeUsers(func(uint64, float64) { n++ })
	return n
}

// UserEntries returns the total number of per-user estimate entries across
// live generations — a user active in g generations contributes g entries,
// so this is an upper bound on NumUsers that costs O(k) table-length reads
// instead of NumUsers' O(users) walk, and never builds the sealed fold.
// Occupancy gauges scraped every few seconds want this reading; exact
// distinct-user counts want NumUsers. Like the point reads it reads the
// live generations under a brief window-lock hold, never a view: building
// one here would make every scrape mark the current per-user table shared
// and bill the writer a fresh copy-on-write detach for a gauge.
func (w *Windowed) UserEntries() int {
	w.lock()
	defer w.unlock()
	total := 0
	for _, g := range w.gens {
		total += g.NumUsers()
	}
	return total
}

// sealed returns the view's sealed fold, building it on the epoch's first
// call; concurrent first callers wait for the one build.
func (w *Windowed) sealed() *sealedFold {
	f := w.fold
	f.once.Do(func() { f.build(w.gens[1:]) })
	return f
}

// rangeSums calls fn once per user of the view with the user's windowed
// sum, added in Estimate's order (newest generation first, +0 where the
// user is absent), so every value equals Estimate bit for bit. Pass 1
// walks the current generation, completes each user's sum from the
// sealed fold and marks the fold position it used; pass 2 emits the
// sealed sum of every unmarked fold user. Membership is presence in a
// generation's table, never a nonzero estimate: a restored zero-valued
// entry still counts as a user.
func (w *Windowed) rangeSums(fn func(user uint64, estimate float64)) {
	f := w.sealed()
	seen := make([]uint64, (len(f.users)+63)/64)
	w.gens[0].RangeUsers(func(u uint64, e float64) {
		sum := 0.0 // Estimate's start: 0 + e is not e when e is −0
		sum += e
		if p := f.find(u); p >= 0 {
			seen[p/64] |= 1 << (p % 64)
			for _, x := range f.ests[p*f.width : (p+1)*f.width] {
				sum += x
			}
		}
		fn(u, sum)
	})
	for p, u := range f.users {
		if seen[p/64]&(1<<(p%64)) == 0 {
			fn(u, f.sums[p])
		}
	}
}

// sortedSums returns the view's per-user sums (rangeSums) in ascending
// user order.
func (w *Windowed) sortedSums() []Spreader {
	out := make([]Spreader, 0, w.gens[0].NumUsers()+len(w.sealed().users))
	w.rangeSums(func(u uint64, e float64) { out = append(out, Spreader{User: u, Estimate: e}) })
	slices.SortFunc(out, func(a, b Spreader) int { return cmp.Compare(a.User, b.User) })
	return out
}

// sealedFold is one epoch's fold of a window's sealed generations, which
// nothing writes again before they retire. It holds every sealed user
// once, at a position: the user's estimate in each sealed generation,
// newest first, 0 where absent; their sum, added in that order from 0 as
// Estimate adds them; and an exact user → position index. Only the
// once-guarded build writes it, so reads after sealed() take no lock.
type sealedFold struct {
	once  sync.Once
	width int        // sealed generations
	users []uint64   // position → user
	ests  []float64  // width estimates per position, newest first
	sums  []float64  // position → sealed sum
	index []foldSlot // linear probing, at most half full
}

// foldSlot is one index slot: a user and its position + 1, 0 when empty
// (so user 0 needs no sentinel).
type foldSlot struct {
	user uint64
	at   int
}

// build folds sealed (newest first) into f: one walk per generation finds
// every distinct user, growing the index so it stays at most half full of
// them, and a second walk files each estimate at its user's position.
func (f *sealedFold) build(sealed []layer) {
	most := 0
	for _, g := range sealed {
		most = max(most, g.NumUsers())
	}
	f.width = len(sealed)
	f.users = make([]uint64, 0, most)
	f.reindex(2 * most)
	for _, g := range sealed {
		g.RangeUsers(func(u uint64, _ float64) {
			s := f.slot(u)
			if s.at != 0 {
				return
			}
			f.users = append(f.users, u)
			*s = foldSlot{user: u, at: len(f.users)}
			if 2*len(f.users) > len(f.index) {
				f.reindex(2 * len(f.index))
			}
		})
	}
	f.ests = make([]float64, len(f.users)*f.width)
	for j, g := range sealed {
		g.RangeUsers(func(u uint64, e float64) {
			f.ests[f.find(u)*f.width+j] = e
		})
	}
	f.sums = make([]float64, len(f.users))
	for p := range f.sums {
		sum := 0.0
		for _, e := range f.ests[p*f.width : (p+1)*f.width] {
			sum += e
		}
		f.sums[p] = sum
	}
}

// reindex rebuilds the index at the smallest power of two holding at
// least capacity slots (2 at least), refiling every user found so far.
func (f *sealedFold) reindex(capacity int) {
	c := 2
	for c < capacity {
		c <<= 1
	}
	f.index = make([]foldSlot, c)
	for p, u := range f.users {
		*f.slot(u) = foldSlot{user: u, at: p + 1}
	}
}

// slot returns the index slot holding u, or the empty slot u would take.
func (f *sealedFold) slot(u uint64) *foldSlot {
	mask := uint64(len(f.index) - 1)
	for i := hashing.Mix64(u) & mask; ; i = (i + 1) & mask {
		if s := &f.index[i]; s.at == 0 || s.user == u {
			return s
		}
	}
}

// find returns u's position, or -1 when no sealed generation holds u.
func (f *sealedFold) find(u uint64) int {
	return f.slot(u).at - 1
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
	w.fold = new(sealedFold)
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
	return &Windowed{build: w.build, cfg: w.cfg, name: w.name, gens: gens, epoch: w.epoch, edges: w.edges,
		fold: new(sealedFold)}
}

// MarshalBinary serializes every live generation plus the epoch bookkeeping
// through the versioned window envelope in internal/core. On a live window
// it serializes a full cut (fullSnapshot), so it is safe against concurrent
// writers and holds the window lock only while the cut copies the current
// generation's array and per-user table. It fails on an estimates-only view from Snapshot,
// which has no array words to write.
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
