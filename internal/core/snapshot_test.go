package core

import (
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

// TestFreeBSSnapshotFrozen: an estimates-only fork reads like an eager
// clone taken at the same instant — same estimates and totals — and stays
// equal while the parent keeps ingesting; it holds no array words, so it
// refuses MarshalBinary.
func TestFreeBSSnapshotFrozen(t *testing.T) {
	f := NewFreeBS(1<<12, 7)
	feedBS(f, 20000, 1)
	clone := f.Clone()
	snap := f.SnapshotEstimates()
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
	if _, err := snap.MarshalBinary(); err == nil {
		t.Fatal("an estimates-only fork serialized: it has no array words to write")
	}
}

// TestFreeRSSnapshotFrozen mirrors the FreeBS test for register sharing.
func TestFreeRSSnapshotFrozen(t *testing.T) {
	f := NewFreeRS(1<<12, 7)
	feedRS(f, 20000, 1)
	clone := f.Clone()
	snap := f.SnapshotEstimates()
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
	if _, err := snap.MarshalBinary(); err == nil {
		t.Fatal("an estimates-only fork serialized: it has no array words to write")
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
		s := f.SnapshotEstimates()
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

// TestSnapshotO1Core: an estimates-only fork of a loaded sketch copies
// neither its array nor its per-user table: it allocates under 1 KiB per
// call, at two array sizes 16x apart.
func TestSnapshotO1Core(t *testing.T) {
	for _, m := range []int{1 << 16, 1 << 20} {
		f := NewFreeBS(m, 7)
		feedBS(f, 50000, 9)
		checkForkBytes(t, "FreeBS", m, func() { sinkBS = f.SnapshotEstimates() })
		r := NewFreeRS(m, 7)
		feedRS(r, 50000, 9)
		checkForkBytes(t, "FreeRS", m, func() { sinkRS = r.SnapshotEstimates() })
	}
}

// checkForkBytes fails t unless fork allocates under 1 KiB per call: a few
// fixed-size structs, never array words or a table copy.
func checkForkBytes(t *testing.T, name string, m int, fork func()) {
	t.Helper()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fork()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1024 {
		t.Fatalf("%s(%d).SnapshotEstimates allocates %d B per call, want under 1 KiB", name, m, got)
	}
}

var (
	sinkBS *FreeBS
	sinkRS *FreeRS
)
