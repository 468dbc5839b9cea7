package window

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a pluggable time source. Production rings use time.Now; tests
// substitute a fake so duration-driven epochs are deterministic.
type Clock func() time.Time

// Boundary decides when the current epoch ends. End is consulted under the
// ring lock after every Feed and on every Tick; now is the ring's Clock,
// passed as a function so edge-driven policies never pay for a time lookup
// on the ingest hot path.
type Boundary interface {
	// End reports whether the epoch that started at start and has absorbed
	// edges edges has ended.
	End(edges uint64, start time.Time, now Clock) bool
}

// Manual never ends an epoch on its own: rotation happens only through an
// explicit Rotate call. This is the default policy.
type Manual struct{}

// End implements Boundary.
func (Manual) End(uint64, time.Time, Clock) bool { return false }

// ByEdges ends an epoch once it has absorbed at least N edges — the policy
// for streams where "recent" is most naturally measured in traffic volume.
type ByEdges struct{ N uint64 }

// End implements Boundary.
func (b ByEdges) End(edges uint64, _ time.Time, _ Clock) bool {
	return b.N > 0 && edges >= b.N
}

// ByDuration ends an epoch after D of time per the ring's Clock — the
// wall-time policy of a deployed monitor ("cardinalities over the last five
// minutes"). Pair it with a periodic Tick so epochs also end while no edges
// arrive.
type ByDuration struct{ D time.Duration }

// End implements Boundary.
func (b ByDuration) End(_ uint64, start time.Time, now Clock) bool {
	return b.D > 0 && now().Sub(start) >= b.D
}

// Option configures a Ring.
type Option func(*config)

type config struct {
	boundary Boundary
	clock    Clock
}

// WithBoundary sets the epoch-boundary policy (default Manual).
func WithBoundary(b Boundary) Option { return func(c *config) { c.boundary = b } }

// WithClock sets the ring's time source (default time.Now).
func WithClock(now Clock) Option { return func(c *config) { c.clock = now } }

// Ring holds up to k live generations of E, newest first. All access runs
// under one mutex, which is what makes rotation safe to interleave with
// batched ingestion: a Feed call is attributed wholly to the epoch current
// at its start, and a concurrent Rotate or Tick waits for it. A sealed ring
// (NewSealed) never changes, so its readers skip the mutex.
type Ring[E any] struct {
	mu       sync.Mutex
	sealed   bool
	build    func() E
	gens     []E // gens[0] is the current generation, gens[len-1] the oldest live
	k        int
	epoch    uint64 // rotations performed so far
	edges    uint64 // edges attributed to the current epoch
	start    time.Time
	clock    Clock
	boundary Boundary
	onRetire func(E)

	// ver counts state changes (feeds, rotations, adoptions). It is bumped
	// under mu but read without it (Version), which is what lets a
	// snapshot-publication layer above the ring check "is my published view
	// still current?" with one atomic load instead of taking the lock.
	ver atomic.Uint64
}

// New returns a ring of k generations (k >= 2); build must return a fresh,
// non-nil generation and is called once now and once per rotation. It panics
// if k < 2 or build is nil or returns nil.
func New[E any](k int, build func() E, opts ...Option) *Ring[E] {
	if k < 2 {
		panic(fmt.Sprintf("window: need at least 2 generations, got %d", k))
	}
	if build == nil {
		panic("window: New requires a build function")
	}
	cfg := config{boundary: Manual{}, clock: time.Now}
	for _, o := range opts {
		o(&cfg)
	}
	r := &Ring[E]{
		build:    build,
		gens:     make([]E, 1, k),
		k:        k,
		clock:    cfg.clock,
		boundary: cfg.boundary,
	}
	r.gens[0] = mustBuild(build)
	r.start = r.clock()
	return r
}

// NewAdopted returns a ring holding the given live generations (newest
// first) at the given epoch and edges-in-epoch count, without building a
// throwaway initial generation — the constructor behind O(1) snapshot views
// and restores, which already hold the generations they want live. The same
// invariants as Adopt apply (live == min(epoch+1, k), no nil generations);
// build is kept for later rotations.
func NewAdopted[E any](k int, build func() E, gens []E, epoch, edges uint64, opts ...Option) (*Ring[E], error) {
	if k < 2 {
		panic(fmt.Sprintf("window: need at least 2 generations, got %d", k))
	}
	if build == nil {
		panic("window: NewAdopted requires a build function")
	}
	cfg := config{boundary: Manual{}, clock: time.Now}
	for _, o := range opts {
		o(&cfg)
	}
	r := &Ring[E]{
		build:    build,
		k:        k,
		clock:    cfg.clock,
		boundary: cfg.boundary,
	}
	if err := r.adoptLocked(gens, epoch, edges); err != nil {
		return nil, err
	}
	return r, nil
}

// NewSealed returns an immutable ring holding the given live generations
// (newest first) at the given epoch and edges-in-epoch count, under the same
// invariants as Adopt — the ring behind a frozen snapshot view. Feed,
// Rotate, Tick and Adopt panic on it, and its readers take no lock, so any
// number of goroutines read it without serializing on each other.
func NewSealed[E any](k int, gens []E, epoch, edges uint64) (*Ring[E], error) {
	r := &Ring[E]{k: k, clock: time.Now, sealed: true}
	if err := r.adoptLocked(gens, epoch, edges); err != nil {
		return nil, err
	}
	return r, nil
}

// lock takes the ring mutex for a read, unless the ring is sealed and so
// cannot change under the reader.
func (r *Ring[E]) lock() {
	if !r.sealed {
		r.mu.Lock()
	}
}

// unlock releases what lock took.
func (r *Ring[E]) unlock() {
	if !r.sealed {
		r.mu.Unlock()
	}
}

// lockToMutate takes the ring mutex for a state change; it panics on a
// sealed ring, which refuses every mutation.
func (r *Ring[E]) lockToMutate(op string) {
	if r.sealed {
		panic("window: " + op + " on a sealed ring")
	}
	r.mu.Lock()
}

func mustBuild[E any](build func() E) E {
	g := build()
	if any(g) == nil {
		panic("window: build returned nil generation")
	}
	return g
}

// OnRetire registers fn to be called with each generation the moment a
// rotation evicts it — after it has stopped being live but before the new
// epoch opens, under the ring lock, so fn observes the retired generation's
// final state exactly once and no Feed can interleave. fn runs on whichever
// goroutine triggered the rotation (an explicit Rotate, a Tick, or a Feed
// that crossed an automatic boundary) and must be fast and must not call
// back into the ring (the lock is not reentrant). Rotations before the ring
// is full do not retire anything (the ring grows instead), and Adopt
// replaces generations without retiring them — the hook reports aged-out
// history, not every discarded pointer. Passing nil removes the hook; it is
// a setter rather than an Option because the callback's signature depends
// on the ring's type parameter.
func (r *Ring[E]) OnRetire(fn func(E)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onRetire = fn
}

// K returns the configured generation count.
func (r *Ring[E]) K() int { return r.k }

// Epoch returns how many rotations have happened.
func (r *Ring[E]) Epoch() uint64 {
	r.lock()
	defer r.unlock()
	return r.epoch
}

// Live returns the number of live generations (1 before the first rotation,
// growing to k).
func (r *Ring[E]) Live() int {
	r.lock()
	defer r.unlock()
	return len(r.gens)
}

// EdgesInEpoch returns how many edges the current epoch has absorbed.
func (r *Ring[E]) EdgesInEpoch() uint64 {
	r.lock()
	defer r.unlock()
	return r.edges
}

// Feed runs fn on the current generation, attributes n more edges to the
// current epoch, then consults the boundary and rotates at most once if the
// epoch has ended. The entire call holds the ring lock, so a batch is never
// torn across generations: its edges all land in the generation that was
// current when Feed began, and any boundary it crosses takes effect only
// after the batch is fully absorbed.
func (r *Ring[E]) Feed(n uint64, fn func(current E)) {
	r.lockToMutate("Feed")
	defer r.mu.Unlock()
	fn(r.gens[0])
	r.edges += n
	r.ver.Add(1)
	if r.boundary.End(r.edges, r.start, r.clock) {
		r.rotateLocked()
	}
}

// Version returns the ring's state-change counter without taking the lock.
// Any Feed, rotation, or Adopt advances it, so a published snapshot stamped
// with the version it was taken at is current exactly while Version still
// reports that stamp.
func (r *Ring[E]) Version() uint64 { return r.ver.Load() }

// ViewStamped runs fn on the live generations (newest first) plus the epoch
// bookkeeping and the current version, all under the ring lock — the hook a
// snapshot builder uses to freeze a consistent (generations, epoch, edges)
// triple stamped with the version to publish it under. The same caveats as
// View apply: fn must not retain the slice or call back into the ring.
func (r *Ring[E]) ViewStamped(fn func(gens []E, epoch, edges, ver uint64)) {
	r.lock()
	defer r.unlock()
	fn(r.gens, r.epoch, r.edges, r.ver.Load())
}

// View runs fn on the live generations, newest first, under the ring lock.
// fn must not retain the slice or rotate/feed the ring (deadlock).
func (r *Ring[E]) View(fn func(live []E)) {
	r.lock()
	defer r.unlock()
	fn(r.gens)
}

// Snapshot returns a copy of the live generation headers (newest first), the
// current epoch, and the edges the current epoch has absorbed. The
// generations themselves are shared, not cloned.
func (r *Ring[E]) Snapshot() (gens []E, epoch, edges uint64) {
	r.lock()
	defer r.unlock()
	return append([]E(nil), r.gens...), r.epoch, r.edges
}

// Rotate forces an epoch boundary: the oldest of k live generations is
// discarded, every survivor ages one slot, and a fresh generation starts
// receiving edges. It returns the new epoch number.
func (r *Ring[E]) Rotate() uint64 {
	r.lockToMutate("Rotate")
	defer r.mu.Unlock()
	r.rotateLocked()
	return r.epoch
}

// Tick consults the boundary without feeding any edges and reports whether
// it rotated — the hook a timer goroutine calls so duration-driven epochs
// also end during traffic lulls.
func (r *Ring[E]) Tick() bool {
	r.lockToMutate("Tick")
	defer r.mu.Unlock()
	if !r.boundary.End(r.edges, r.start, r.clock) {
		return false
	}
	r.rotateLocked()
	return true
}

func (r *Ring[E]) rotateLocked() {
	g := mustBuild(r.build)
	if len(r.gens) < r.k {
		var zero E
		r.gens = append(r.gens, zero)
	} else if r.onRetire != nil {
		r.onRetire(r.gens[len(r.gens)-1])
	}
	copy(r.gens[1:], r.gens)
	r.gens[0] = g
	r.epoch++
	r.edges = 0
	r.start = r.clock()
	r.ver.Add(1)
}

// Adopt replaces the ring's live generations (newest first), epoch, and
// edges-in-epoch counter — the restore path of checkpointing, cloning, and
// merging. It enforces the ring invariant live == min(epoch+1, k) and
// rejects nil generations; on error the ring is unchanged. The epoch's start
// time restarts at the clock's now: wall-time boundaries measure from the
// restore, since the original start instant is not meaningful across a
// process restart.
func (r *Ring[E]) Adopt(gens []E, epoch, edges uint64) error {
	r.lockToMutate("Adopt")
	defer r.mu.Unlock()
	return r.adoptLocked(gens, epoch, edges)
}

func (r *Ring[E]) adoptLocked(gens []E, epoch, edges uint64) error {
	want := uint64(r.k)
	if epoch < uint64(r.k)-1 {
		want = epoch + 1
	}
	if uint64(len(gens)) != want {
		return fmt.Errorf("window: %d live generations inconsistent with epoch %d of a %d-generation ring (want %d)",
			len(gens), epoch, r.k, want)
	}
	for _, g := range gens {
		if any(g) == nil {
			return errors.New("window: Adopt of a nil generation")
		}
	}
	r.gens = append(r.gens[:0:0], gens...)
	r.epoch = epoch
	r.edges = edges
	r.start = r.clock()
	r.ver.Add(1)
	return nil
}
