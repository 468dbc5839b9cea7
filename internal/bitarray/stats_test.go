package bitarray

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

// TestStatsCopy: a Stats copy freezes the statistics without holding the
// words — a write to the parent after it allocates nothing — and every
// operation that needs the words refuses it.
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
	if n := mallocs(func() { b.Set(7) }); n != 0 {
		t.Fatalf("the parent's first write after Stats made %d allocations, want 0", n)
	}
	if !b.Get(7) || st.ZeroCount() != 255 {
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
