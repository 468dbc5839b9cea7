package core

import (
	"bytes"
	"runtime"
	"testing"
)

// feedBS ingests a deterministic bursty stream.
func feedBS(f *FreeBS, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f.Observe(x%500+1, x>>17)
	}
}

func feedRS(f *FreeRS, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f.Observe(x%500+1, x>>17)
	}
}

// TestFreeBSSnapshotFrozen: a snapshot equals an eager clone taken at the
// same instant — same estimates, totals, serialized bytes — and stays equal
// while the parent keeps ingesting.
func TestFreeBSSnapshotFrozen(t *testing.T) {
	f := NewFreeBS(1<<12, 7)
	feedBS(f, 20000, 1)
	clone := f.Clone()
	snap := f.Snapshot()
	feedBS(f, 20000, 2) // parent moves on

	if snap.TotalDistinct() != clone.TotalDistinct() ||
		snap.TotalDistinctLPC() != clone.TotalDistinctLPC() ||
		snap.NumUsers() != clone.NumUsers() ||
		snap.EdgesProcessed() != clone.EdgesProcessed() {
		t.Fatal("snapshot diverged from the moment-of-snapshot clone")
	}
	for u := uint64(1); u <= 500; u++ {
		if snap.Estimate(u) != clone.Estimate(u) {
			t.Fatalf("user %d: snapshot %v != clone %v", u, snap.Estimate(u), clone.Estimate(u))
		}
	}
	sb, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := clone.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, cb) {
		t.Fatal("snapshot serializes differently from the clone (frozen-state contract)")
	}
}

// TestFreeRSSnapshotFrozen mirrors the FreeBS test for register sharing.
func TestFreeRSSnapshotFrozen(t *testing.T) {
	f := NewFreeRS(1<<12, 7)
	feedRS(f, 20000, 1)
	clone := f.Clone()
	snap := f.Snapshot()
	feedRS(f, 20000, 2)

	if snap.TotalDistinct() != clone.TotalDistinct() ||
		snap.TotalDistinctHLL() != clone.TotalDistinctHLL() ||
		snap.NumUsers() != clone.NumUsers() {
		t.Fatal("snapshot diverged from the moment-of-snapshot clone")
	}
	for u := uint64(1); u <= 500; u++ {
		if snap.Estimate(u) != clone.Estimate(u) {
			t.Fatalf("user %d: snapshot %v != clone %v", u, snap.Estimate(u), clone.Estimate(u))
		}
	}
	sb, _ := snap.MarshalBinary()
	cb, _ := clone.MarshalBinary()
	if !bytes.Equal(sb, cb) {
		t.Fatal("snapshot serializes differently from the clone")
	}
}

// TestSnapshotChainThroughBatches: repeated snapshot/ingest cycles (the
// serving pattern) never corrupt parent or snapshots; each snapshot holds
// the state of its own instant.
func TestSnapshotChainThroughBatches(t *testing.T) {
	f := NewFreeRS(1<<10, 3)
	var snaps []*FreeRS
	var totals []float64
	for round := 0; round < 8; round++ {
		edges := make([]Edge, 0, 1000)
		x := uint64(round + 1)
		for i := 0; i < 1000; i++ {
			x = x*2862933555777941757 + 3037000493
			edges = append(edges, Edge{User: x % 50, Item: x >> 13})
		}
		f.ObserveBatch(edges)
		s := f.Snapshot()
		snaps = append(snaps, s)
		totals = append(totals, s.TotalDistinct())
	}
	for i, s := range snaps {
		if s.TotalDistinct() != totals[i] {
			t.Fatalf("snapshot %d drifted after later ingestion", i)
		}
	}
	// Totals are non-decreasing across the chain (duplicates aside, the
	// stream only adds pairs).
	for i := 1; i < len(totals); i++ {
		if totals[i] < totals[i-1] {
			t.Fatalf("snapshot totals went backwards: %v", totals)
		}
	}
}

// TestSnapshotO1Core: a full fork of a loaded sketch copies its array once,
// at the fork, and shares its per-user table: it allocates one array's
// bytes and less than one table's more.
func TestSnapshotO1Core(t *testing.T) {
	f := NewFreeBS(1<<20, 7)
	feedBS(f, 50000, 9)
	checkForkBytes(t, "FreeBS", f.MemoryBits(), f.PerUserBytes(), func() { sinkBS = f.Snapshot() })
	r := NewFreeRS(1<<18, 7)
	feedRS(r, 50000, 9)
	checkForkBytes(t, "FreeRS", r.MemoryBits(), r.PerUserBytes(), func() { sinkRS = r.Snapshot() })
}

// checkForkBytes fails t unless fork allocates, per call, at least the
// bytes of an array of memoryBits bits packed into words, and less than
// that plus tableBytes: an array copy, never a table copy.
func checkForkBytes(t *testing.T, name string, memoryBits, tableBytes int64, fork func()) {
	t.Helper()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fork()
	}
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc-before.TotalAlloc) / runs
	arrayBytes := (memoryBits + 63) / 64 * 8
	if got < arrayBytes || got >= arrayBytes+tableBytes {
		t.Fatalf("%s.Snapshot allocates %d B per call, want one %d B array and less than the %d B table more",
			name, got, arrayBytes, tableBytes)
	}
}

var (
	sinkBS *FreeBS
	sinkRS *FreeRS
)
