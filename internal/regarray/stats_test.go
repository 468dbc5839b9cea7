package regarray

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocs returns the heap allocations fn made. Unlike testing.AllocsPerRun
// it counts a single call, so it measures a first write, not a warmed one.
// The counter is process-wide, so the collector is off and one P runs while
// it counts: nothing but fn allocates in the window.
func mallocs(fn func()) uint64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStatsCopy: a Stats copy freezes the statistics, including the exact
// harmonic sum, without holding the words — a write to the parent after it
// allocates nothing — and every operation that needs the words refuses it.
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
	if n := mallocs(func() { a.UpdateMax(2, 9) }); n != 0 {
		t.Fatalf("the parent's first write after Stats made %d allocations, want 0", n)
	}
	if a.Get(2) != 9 || st.ZeroCount() != 101 || st.ScaledHarmonicSum() != wantScaled {
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
