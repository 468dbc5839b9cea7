// Package usertab provides the flat per-user estimate store shared by the
// FreeBS/FreeRS sketches: an open-addressing hash table specialized for
// uint64 → float64, holding every user's anytime running estimate.
//
// The paper's memory argument is that the SKETCH is one shared array with no
// per-user structure; at millions of users the per-user bookkeeping must be
// held to the same standard, and a Go map is the wrong tool for it — every
// entry pays bucket headers, and the whole structure is opaque to accounting.
// This table stores entries in two parallel slices (keys, values) with no
// per-entry allocation and no pointers for the garbage collector to trace:
// its entire footprint is two flat arrays whose size MemoryBytes reports
// exactly.
//
// Layout and policies:
//
//   - Power-of-two capacity, grown by doubling. Because the sketches never
//     delete individual users (estimates only accumulate; state is discarded
//     wholesale via Reset or by retiring a window generation), the table is
//     tombstone-free, and probing never has to skip deleted slots.
//   - Robin Hood linear probing: an inserted entry displaces any occupant
//     that sits closer to its own home slot, which keeps probe lengths tight
//     and lets lookups of absent keys stop early (at the first occupant
//     closer to home than the probe is long). That bounded miss cost is what
//     allows the high 31/32 maximum load factor — the memory-thrift setting
//     this package exists for — without linear probing's usual collapse of
//     negative lookups near full occupancy.
//   - Layout is a pure function of the insertion sequence, so two tables fed
//     the same operations are cell-for-cell identical and Range visits their
//     entries in the same order. SortedRange visits entries in ascending key
//     order regardless of layout — the order serialization uses, so equal
//     logical states always serialize to equal bytes.
//
// Key 0 is the empty-slot sentinel in the arrays; a real user 0 is held in a
// sidecar (hasZero/zeroVal) and reported first by both iteration orders.
package usertab

import (
	"slices"
	"sync"

	"repro/internal/hashing"
)

// minCapacity is the smallest slot count a table allocates. Small enough
// that short-lived sketches (one per window generation per shard) stay
// cheap, large enough that the first few doublings don't dominate.
const minCapacity = 16

// Table is a flat open-addressing map from user ID to running estimate.
// The zero value is not usable; call New or NewWithCapacity.
type Table struct {
	keys []uint64  // 0 = empty slot
	vals []float64 // parallel to keys
	mask uint64    // len(keys)-1; len is a power of two
	n    int       // occupied slots (excludes the zero-key sidecar)

	// growAt is the occupancy at which the next mutation doubles the
	// arrays: capacity minus max(1, capacity/32), i.e. a 31/32 maximum
	// load factor at realistic sizes.
	growAt int

	hasZero bool    // user 0 present (sidecar; 0 marks empty slots)
	zeroVal float64 // user 0's value

	// shared marks keys/vals as possibly aliased by a Snapshot: the next
	// slot write must detach (copy both arrays) first. The sidecar and the
	// occupancy counters live in the struct and are copied by Snapshot.
	shared bool
}

// New returns an empty table at the minimum capacity.
func New() *Table { return NewWithCapacity(0) }

// NewWithCapacity returns an empty table pre-sized to hold n entries without
// growing — the restore path knows its entry count up front and skips the
// doubling churn.
func NewWithCapacity(n int) *Table {
	c := minCapacity
	for c-grow32nd(c) < n {
		c <<= 1
	}
	t := &Table{}
	t.install(c)
	return t
}

func grow32nd(c int) int {
	g := c / 32
	if g < 1 {
		g = 1
	}
	return g
}

// install points the table at fresh arrays of capacity c (a power of two).
// Fresh arrays are private by construction, so install also clears shared.
func (t *Table) install(c int) {
	t.keys = make([]uint64, c)
	t.vals = make([]float64, c)
	t.mask = uint64(c) - 1
	t.n = 0
	t.growAt = c - grow32nd(c)
	t.shared = false
}

// Snapshot returns an O(1) logically frozen copy of t: both tables keep the
// shared backing arrays and the first slot write on either side copies them
// (copy-on-write), so taking a snapshot costs one small struct allocation
// regardless of occupancy. Reads of the snapshot (Get, Range, SortedRange)
// are safe concurrently with mutations of the parent, which detaches onto
// private arrays before its first write.
func (t *Table) Snapshot() *Table {
	t.shared = true
	c := *t
	return &c
}

// detach gives t private copies of the backing arrays if a snapshot may
// still alias them. Called before every slot write (put, Ref).
func (t *Table) detach() {
	if !t.shared {
		return
	}
	t.keys = slices.Clone(t.keys)
	t.vals = slices.Clone(t.vals)
	t.shared = false
}

// home returns key's preferred slot.
func (t *Table) home(key uint64) uint64 { return hashing.Mix64(key) & t.mask }

// distance returns how far slot is from key's home, in probe steps.
func (t *Table) distance(key, slot uint64) uint64 {
	return (slot - t.home(key)) & t.mask
}

// Len returns the number of stored entries in O(1).
func (t *Table) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Cap returns the current slot capacity (tests and accounting).
func (t *Table) Cap() int { return len(t.keys) }

// MemoryBytes returns the table's backing-array footprint: 16 bytes per
// slot (8 key + 8 value). Unlike a map, the whole structure is these two
// arrays, so this is the exact per-user bookkeeping cost.
func (t *Table) MemoryBytes() int64 { return int64(len(t.keys)) * 16 }

// Get returns key's value, or 0 if absent. It is a pure read: unlike Ref it
// never detaches a snapshot-shared table, so it is safe on frozen views.
func (t *Table) Get(key uint64) float64 {
	if key == 0 {
		if t.hasZero {
			return t.zeroVal
		}
		return 0
	}
	slot := t.home(key)
	var d uint64
	for {
		k := t.keys[slot]
		if k == key {
			return t.vals[slot]
		}
		if k == 0 || t.distance(k, slot) < d {
			return 0
		}
		slot = (slot + 1) & t.mask
		d++
	}
}

// Ref returns a pointer to key's value cell, or nil if key is absent. The
// pointer stays valid until the next Add, Set, Reset, or Snapshot (growth
// and copy-on-write both move the arrays) — the batch ingestion hot path
// reads a user's estimate once per run, accumulates in a register, and
// writes back through the same pointer, paying one probe sequence instead
// of two. Because the returned pointer is writable, Ref detaches the table
// from any outstanding snapshot before probing.
func (t *Table) Ref(key uint64) *float64 {
	if key == 0 {
		if t.hasZero {
			return &t.zeroVal
		}
		return nil
	}
	t.detach()
	slot := t.home(key)
	var d uint64
	for {
		k := t.keys[slot]
		if k == key {
			return &t.vals[slot]
		}
		// Empty slot, or an occupant closer to its home than we are to
		// ours: Robin Hood's invariant says key cannot be further along.
		if k == 0 || t.distance(k, slot) < d {
			return nil
		}
		slot = (slot + 1) & t.mask
		d++
	}
}

// Add accumulates delta into key's value, inserting the entry (at value
// delta) if absent. Amortized O(1).
func (t *Table) Add(key uint64, delta float64) {
	if key == 0 {
		t.zeroVal += delta
		t.hasZero = true
		return
	}
	if t.n >= t.growAt {
		t.rehash()
	}
	t.put(key, delta, true)
}

// Set overwrites key's value, inserting if absent — the restore path, which
// replays serialized entries rather than accumulating credits.
func (t *Table) Set(key uint64, val float64) {
	if key == 0 {
		t.zeroVal = val
		t.hasZero = true
		return
	}
	if t.n >= t.growAt {
		t.rehash()
	}
	t.put(key, val, false)
}

// put inserts (key, val) with Robin Hood displacement, or combines with an
// existing entry (+= when accumulate, overwrite otherwise). key is nonzero
// and the table has a free slot.
func (t *Table) put(key uint64, val float64, accumulate bool) {
	t.detach()
	slot := t.home(key)
	var d uint64
	for {
		k := t.keys[slot]
		if k == 0 {
			t.keys[slot] = key
			t.vals[slot] = val
			t.n++
			return
		}
		if k == key {
			if accumulate {
				t.vals[slot] += val
			} else {
				t.vals[slot] = val
			}
			return
		}
		if ed := t.distance(k, slot); ed < d {
			// The occupant is closer to home than we are: take its slot
			// and keep walking with the displaced entry. Once displaced,
			// the carried entry can no longer equal key (key was not found
			// before this point), so the equality check above stays
			// correct: an already-robbed entry never matches.
			t.keys[slot], key = key, k
			t.vals[slot], val = val, t.vals[slot]
			d = ed
		}
		slot = (slot + 1) & t.mask
		d++
	}
}

// rehash doubles the arrays and reinserts every entry in slot order, which
// keeps the new layout a pure function of the old one.
func (t *Table) rehash() {
	oldKeys, oldVals := t.keys, t.vals
	t.install(len(oldKeys) * 2)
	for i, k := range oldKeys {
		if k != 0 {
			t.put(k, oldVals[i], false)
		}
	}
}

// Range calls fn for every entry in layout order (user 0 first, then slot
// order): allocation-free and deterministic for a given operation history,
// but NOT sorted and not stable across a rehash or a serialize/restore
// round trip. Aggregations that treat each user independently (top-k
// selection, per-user sums, fan-ins) want this; serialization wants
// SortedRange. fn must not mutate the table.
func (t *Table) Range(fn func(key uint64, val float64)) {
	if t.hasZero {
		fn(0, t.zeroVal)
	}
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.vals[i])
		}
	}
}

// SortedRange calls fn for every entry in ascending key order — the
// deterministic order serialization and user enumeration promise, identical
// for equal logical states regardless of how their layouts were reached.
// It sorts an entry scratch slice (O(n log n)) drawn from a shared pool, so
// repeated sorted enumerations (serialization, /users streams) reuse one
// buffer instead of allocating 16 bytes per entry per call; use Range
// where order does not matter. fn must not mutate the table.
func (t *Table) SortedRange(fn func(key uint64, val float64)) {
	if t.hasZero {
		fn(0, t.zeroVal)
	}
	sp := entryScratch.Get().(*[]entry)
	// Collect values alongside keys in the single slot walk: re-probing the
	// table per key would pay a full probe chain each at 31/32 load.
	entries := (*sp)[:0]
	for i, k := range t.keys {
		if k != 0 {
			entries = append(entries, entry{k, t.vals[i]})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		// Keys are unique, so this is a strict total order.
		if a.key < b.key {
			return -1
		}
		return 1
	})
	for _, e := range entries {
		fn(e.key, e.val)
	}
	*sp = entries[:0]
	entryScratch.Put(sp)
}

// entry is SortedRange's scratch element.
type entry struct {
	key uint64
	val float64
}

// entryScratch pools SortedRange's sort scratch. The buffer never escapes
// the call (fn receives copied key/value pairs), and reentrant or
// concurrent SortedRange calls each draw their own buffer, so pooling is
// safe; a panicking fn leaks at most one buffer to the GC.
var entryScratch = sync.Pool{New: func() any { return new([]entry) }}

// Clone returns a deep copy: same entries, same layout, no shared state
// (eager, unlike Snapshot's lazy copy-on-write).
func (t *Table) Clone() *Table {
	c := *t
	c.keys = slices.Clone(t.keys)
	c.vals = slices.Clone(t.vals)
	c.shared = false
	return &c
}

// Reset discards every entry and releases the backing arrays, returning the
// table to its initial minimum capacity — deletion happens only wholesale,
// which is what keeps the probe sequences tombstone-free.
func (t *Table) Reset() {
	t.install(minCapacity)
	t.hasZero = false
	t.zeroVal = 0
}
