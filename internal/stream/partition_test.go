package stream

import (
	"testing"
)

// refSplit is the obviously correct partitioner: route edge by edge,
// appending in batch order.
func refSplit(edges []Edge, shards int, index func(uint64) int) [][]Edge {
	out := make([][]Edge, shards)
	for _, e := range edges {
		t := index(e.User)
		out[t] = append(out[t], e)
	}
	return out
}

func burstyEdges(n int, users uint64, seed uint64) []Edge {
	// Runs of 1..8 edges per user, like real clumpy streams.
	edges := make([]Edge, 0, n)
	state := seed
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	for len(edges) < n {
		u := next()%users + 1
		run := int(next()%8) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: next()})
		}
	}
	return edges
}

// TestPartitionerMatchesEdgeByEdgeRouting: the counting-sort split must
// produce, for every shard, exactly the edges the per-edge router would,
// in exactly the batch order — that order is what downstream bit-identical
// determinism rests on.
func TestPartitionerMatchesEdgeByEdgeRouting(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		index := func(u uint64) int { return int(u % uint64(shards)) }
		p := NewPartitioner(shards, index)
		for _, n := range []int{0, 1, 7, 1000, 4096} {
			edges := burstyEdges(n, 97, uint64(n)+3)
			want := refSplit(edges, shards, index)
			b := p.Split(edges)
			if b.NumShards() != shards {
				t.Fatalf("NumShards %d, want %d", b.NumShards(), shards)
			}
			if b.Len() != n {
				t.Fatalf("shards=%d n=%d: Len %d", shards, n, b.Len())
			}
			for s := 0; s < shards; s++ {
				got := b.Shard(s)
				if len(got) != len(want[s]) {
					t.Fatalf("shards=%d n=%d shard %d: %d edges, want %d", shards, n, s, len(got), len(want[s]))
				}
				for i := range got {
					if got[i] != want[s][i] {
						t.Fatalf("shards=%d n=%d shard %d edge %d: %v, want %v", shards, n, s, i, got[i], want[s][i])
					}
					if index(got[i].User) != s {
						t.Fatalf("shard %d holds edge of shard %d", s, index(got[i].User))
					}
				}
			}
			b.Release()
		}
	}
}

// TestPartitionerSourceFreeAfterSplit: at every shard count, one included,
// the sub-batches are copies, so mutating (or reusing) the source after
// Split must not change them — that property is what lets the server
// release a wire request body, or read the next CWT1 frame into the same
// buffer, the moment Split returns.
func TestPartitionerSourceFreeAfterSplit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		index := func(u uint64) int { return int(u % uint64(shards)) }
		p := NewPartitioner(shards, index)
		edges := burstyEdges(500, 31, 9)
		want := refSplit(edges, shards, index)
		b := p.Split(edges)
		for i := range edges {
			edges[i] = Edge{User: ^uint64(0), Item: ^uint64(0)} // scribble
		}
		for s := 0; s < shards; s++ {
			got := b.Shard(s)
			if len(got) != len(want[s]) {
				t.Fatalf("shards=%d shard %d: %d edges, want %d", shards, s, len(got), len(want[s]))
			}
			for i := range got {
				if got[i] != want[s][i] {
					t.Fatalf("shards=%d shard %d edge %d changed when the source was scribbled", shards, s, i)
				}
			}
		}
		b.Release()
		// An empty split drawn from the pool must not see the last batch.
		b2 := p.Split(nil)
		if b2.Len() != 0 {
			t.Fatalf("shards=%d: empty split reports %d edges", shards, b2.Len())
		}
		b2.Release()
	}
}

// TestPartitionerReuse: Release/Split cycles must keep producing correct
// output (pooled scratch fully reset between batches).
func TestPartitionerReuse(t *testing.T) {
	shards := 5
	index := func(u uint64) int { return int(u % uint64(shards)) }
	p := NewPartitioner(shards, index)
	for round := 0; round < 50; round++ {
		edges := burstyEdges(10+round*37, 11, uint64(round))
		want := refSplit(edges, shards, index)
		b := p.Split(edges)
		for s := 0; s < shards; s++ {
			got := b.Shard(s)
			if len(got) != len(want[s]) {
				t.Fatalf("round %d shard %d: %d edges, want %d", round, s, len(got), len(want[s]))
			}
			for i := range got {
				if got[i] != want[s][i] {
					t.Fatalf("round %d shard %d edge %d mismatch", round, s, i)
				}
			}
		}
		b.Release()
	}
}

func TestPartitionerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero shards", func() { NewPartitioner(0, func(uint64) int { return 0 }) })
	mustPanic("nil index", func() { NewPartitioner(2, nil) })
	p := NewPartitioner(2, func(u uint64) int { return int(u % 2) })
	b := p.Split([]Edge{{User: 1, Item: 1}})
	defer b.Release()
	mustPanic("shard out of range", func() { b.Shard(2) })
	mustPanic("negative shard", func() { b.Shard(-1) })
}
