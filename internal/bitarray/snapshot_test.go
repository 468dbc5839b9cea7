package bitarray

import "testing"

// TestSnapshotIsolation: a snapshot is a frozen logical copy — mutations of
// the parent after the snapshot never show through it, in either direction.
func TestSnapshotIsolation(t *testing.T) {
	b := New(257) // odd size exercises the partial final word
	for _, i := range []int{0, 63, 64, 200, 256} {
		b.Set(i)
	}
	snap := b.Snapshot()
	wantZeros := b.ZeroCount()

	// Parent mutations: set new bits, clear an old one.
	b.Set(1)
	b.Set(100)
	b.Clear(63)
	if snap.ZeroCount() != wantZeros {
		t.Fatalf("snapshot zero count drifted: %d != %d", snap.ZeroCount(), wantZeros)
	}
	for _, i := range []int{0, 63, 64, 200, 256} {
		if !snap.Get(i) {
			t.Fatalf("snapshot lost bit %d", i)
		}
	}
	if snap.Get(1) || snap.Get(100) {
		t.Fatal("parent mutation leaked into snapshot")
	}
	if err := snap.Audit(); err != nil {
		t.Fatalf("snapshot audit: %v", err)
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("parent audit: %v", err)
	}

	// Snapshot mutations must not leak back into the parent either.
	snap2 := b.Snapshot()
	snap2.Set(2)
	if b.Get(2) {
		t.Fatal("snapshot mutation leaked into parent")
	}
}

// TestSnapshotReset: Reset on a shared array must leave snapshots intact.
func TestSnapshotReset(t *testing.T) {
	b := New(128)
	b.Set(5)
	snap := b.Snapshot()
	b.Reset()
	if !snap.Get(5) || snap.ZeroCount() != 127 {
		t.Fatal("Reset destroyed the snapshot")
	}
	if b.ZeroCount() != 128 || b.Get(5) {
		t.Fatal("Reset did not clear the parent")
	}
}

// TestSnapshotUnionDetaches: UnionWith writes every word, so it must detach
// from outstanding snapshots first.
func TestSnapshotUnionDetaches(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	b.Set(2)
	snap := a.Snapshot()
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	if snap.Get(2) {
		t.Fatal("union leaked into snapshot")
	}
	if !a.Get(1) || !a.Get(2) {
		t.Fatal("union lost bits")
	}
}

// TestSnapshotO1: taking a snapshot must not copy the backing words — its
// allocation cost is one fixed-size struct, independent of M.
func TestSnapshotO1(t *testing.T) {
	for _, size := range []int{1 << 10, 1 << 20} {
		b := New(size)
		b.Set(3)
		allocs := testing.AllocsPerRun(100, func() {
			sink = b.Snapshot()
		})
		if allocs > 1 {
			t.Fatalf("Snapshot of %d bits allocates %v objects, want <= 1", size, allocs)
		}
	}
}

// TestDetachOncePerSnapshot: after one post-snapshot write detaches, further
// writes are in-place (no repeated copying while unshared).
func TestDetachOncePerSnapshot(t *testing.T) {
	b := New(1 << 12)
	_ = b.Snapshot()
	b.Set(0) // detaches
	allocs := testing.AllocsPerRun(100, func() {
		b.Clear(1)
		b.Set(1)
	})
	if allocs != 0 {
		t.Fatalf("writes on a detached array allocate (%v allocs/run)", allocs)
	}
}

var sink any // defeats dead-code elimination in alloc tests

// TestStatsCopy: a Stats copy freezes the statistics without sharing the
// words — the parent's next write stays in place — and every operation
// that needs the words refuses it.
func TestStatsCopy(t *testing.T) {
	b := New(257)
	b.Set(3)
	b.Set(256)
	st := b.Stats()
	if st.HasWords() || !b.HasWords() {
		t.Fatal("HasWords: the Stats copy must have none, the parent its own")
	}
	if st.Size() != 257 || st.ZeroCount() != 255 || st.ZeroFraction() != b.ZeroFraction() {
		t.Fatalf("Stats copy reads size %d zeros %d", st.Size(), st.ZeroCount())
	}
	if b.shared {
		t.Fatal("Stats marked the parent's words shared: its next write would copy them")
	}
	b.Set(7)
	if st.ZeroCount() != 255 {
		t.Fatal("a parent write moved the Stats copy's zero count")
	}
	if _, err := st.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary of a Stats copy succeeded")
	}
	if err := b.UnionWith(st); err == nil {
		t.Fatal("UnionWith from a Stats copy succeeded")
	}
	if err := st.UnionWith(b); err == nil {
		t.Fatal("UnionWith into a Stats copy succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a Stats copy did not panic")
		}
	}()
	st.Clone()
}
