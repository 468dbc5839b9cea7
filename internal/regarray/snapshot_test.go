package regarray

import "testing"

// TestSnapshotIsolation: a snapshot is a frozen logical copy — register
// updates on the parent after the snapshot never show through it, and the
// maintained statistics (zeros, exact harmonic sum) stay frozen with it.
func TestSnapshotIsolation(t *testing.T) {
	a := New(103, 5) // odd size exercises registers straddling word borders
	a.UpdateMax(0, 7)
	a.UpdateMax(50, 3)
	a.UpdateMax(102, 31)
	snap := a.Snapshot()
	wantZeros := a.ZeroCount()
	wantScaled := a.ScaledHarmonicSum()

	a.UpdateMax(1, 9)
	a.UpdateMax(50, 12) // grow an existing register
	if snap.Get(1) != 0 || snap.Get(50) != 3 {
		t.Fatalf("parent mutation leaked into snapshot: R[1]=%d R[50]=%d", snap.Get(1), snap.Get(50))
	}
	if snap.ZeroCount() != wantZeros || snap.ScaledHarmonicSum() != wantScaled {
		t.Fatal("snapshot statistics drifted")
	}
	if err := snap.Audit(); err != nil {
		t.Fatalf("snapshot audit: %v", err)
	}
	if err := a.Audit(); err != nil {
		t.Fatalf("parent audit: %v", err)
	}

	// Snapshot mutations must not leak back into the parent.
	snap2 := a.Snapshot()
	snap2.UpdateMax(2, 4)
	if a.Get(2) != 0 {
		t.Fatal("snapshot mutation leaked into parent")
	}
}

// TestSnapshotReset: Reset on a shared array must leave snapshots intact.
func TestSnapshotReset(t *testing.T) {
	a := New(64, 5)
	a.UpdateMax(7, 13)
	snap := a.Snapshot()
	a.Reset()
	if snap.Get(7) != 13 {
		t.Fatal("Reset destroyed the snapshot")
	}
	if a.Get(7) != 0 || a.ZeroCount() != 64 {
		t.Fatal("Reset did not clear the parent")
	}
	if err := snap.Audit(); err != nil {
		t.Fatalf("snapshot audit after parent reset: %v", err)
	}
}

// TestSnapshotO1: taking a snapshot must not copy the packed words.
func TestSnapshotO1(t *testing.T) {
	for _, size := range []int{1 << 10, 1 << 18} {
		a := New(size, 5)
		a.UpdateMax(3, 3)
		allocs := testing.AllocsPerRun(100, func() {
			sink = a.Snapshot()
		})
		if allocs > 1 {
			t.Fatalf("Snapshot of %d registers allocates %v objects, want <= 1", size, allocs)
		}
	}
}

// TestDetachOncePerSnapshot: after the first post-snapshot write detaches,
// further writes are in-place.
func TestDetachOncePerSnapshot(t *testing.T) {
	a := New(1<<12, 5)
	_ = a.Snapshot()
	a.UpdateMax(0, 1) // detaches
	v := uint8(2)
	allocs := testing.AllocsPerRun(50, func() {
		a.UpdateMax(0, v)
		v++
	})
	if allocs != 0 {
		t.Fatalf("writes on a detached array allocate (%v allocs/run)", allocs)
	}
}

var sink any

// TestStatsCopy: a Stats copy freezes the statistics, including the exact
// harmonic sum, without sharing the words — the parent's next write stays
// in place — and every operation that needs the words refuses it.
func TestStatsCopy(t *testing.T) {
	a := New(103, 5)
	a.UpdateMax(0, 7)
	a.UpdateMax(102, 31)
	st := a.Stats()
	if st.HasWords() || !a.HasWords() {
		t.Fatal("HasWords: the Stats copy must have none, the parent its own")
	}
	if st.Size() != 103 || st.Width() != 5 || st.ZeroCount() != 101 ||
		st.ScaledHarmonicSum() != a.ScaledHarmonicSum() || st.ChangeProbability() != a.ChangeProbability() {
		t.Fatal("Stats copy statistics differ from the parent's")
	}
	wantScaled := st.ScaledHarmonicSum()
	if a.shared {
		t.Fatal("Stats marked the parent's words shared: its next write would copy them")
	}
	a.UpdateMax(2, 9)
	if st.ZeroCount() != 101 || st.ScaledHarmonicSum() != wantScaled {
		t.Fatal("a parent write moved the Stats copy's statistics")
	}
	if _, err := st.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary of a Stats copy succeeded")
	}
	if err := a.UnionWith(st); err == nil {
		t.Fatal("UnionWith from a Stats copy succeeded")
	}
	if err := st.UnionWith(a); err == nil {
		t.Fatal("UnionWith into a Stats copy succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a Stats copy did not panic")
		}
	}()
	st.Clone()
}
