package streamcard

// Tests for writer-side snapshot publication: query latency must stay flat
// while large batches absorb (the reader never takes a shard lock on the
// serving path), read-your-writes must survive the inversion, writes must
// keep the published view current with no reader involved, and writers on
// different shards must never publish over each other's slots (the
// CompareAndSwap in publishShard).

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashing"
)

func freshTestStack(shards, gens, mbits int) *Sharded {
	per := mbits / shards
	return NewSharded(shards, func(int) Estimator {
		return NewWindowed(func() Estimator {
			return NewFreeRS(per, WithSeed(1))
		}, WithGenerations(gens))
	})
}

func freshTestBatch(seed uint64, n, users int) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{User: uint64(rng.Intn(users) + 1), Item: rng.Uint64()}
	}
	return edges
}

// TestSnapshotFreshUnderWritePressure asserts the core serving property of
// writer-side publication: a query issued while 65k-edge batches are
// absorbing does not queue behind the batch. It measures every batch
// absorb and every query, then requires the queries' p90 to sit far below
// the median batch — under the old reader-pays design the snapshot was
// stale on essentially every query, so queries waited out whole batches
// and query latency tracked batch latency instead.
func TestSnapshotFreshUnderWritePressure(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive torture test")
	}
	s := freshTestStack(4, 4, 1<<22)
	batch := freshTestBatch(1, 65536, 50_000)
	s.ObserveBatch(batch)
	if s.Snapshot() == nil { // warm the view and arm writer publication
		t.Fatal("stack is not snapshottable")
	}

	var (
		stop     sync.WaitGroup
		done     = make(chan struct{})
		batchMu  sync.Mutex
		batchDur []float64
		batches  atomic.Int64
	)
	for w := 0; w < 2; w++ {
		stop.Add(1)
		go func(seed uint64) {
			defer stop.Done()
			b := freshTestBatch(seed, 65536, 50_000)
			for {
				select {
				case <-done:
					return
				default:
				}
				t0 := time.Now()
				s.ObserveBatch(b)
				d := time.Since(t0).Seconds()
				batchMu.Lock()
				batchDur = append(batchDur, d)
				batchMu.Unlock()
				batches.Add(1)
			}
		}(uint64(2 + w))
	}

	// Query for at least 500 ms and until the writers have finished four
	// batches (a slow host, or -race, can stretch a 65k-edge absorb past
	// 100 ms), capped at 30 s against a hung writer.
	var queryDur []float64
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= 30*time.Second || (el >= 500*time.Millisecond && batches.Load() >= 4) {
			break
		}
		t0 := time.Now()
		v := s.Snapshot()
		_ = v.Estimate(uint64(len(queryDur)%50_000 + 1))
		queryDur = append(queryDur, time.Since(t0).Seconds())
	}
	close(done)
	stop.Wait()

	if len(queryDur) < 100 || len(batchDur) < 4 {
		t.Fatalf("degenerate run: %d queries, %d batches", len(queryDur), len(batchDur))
	}
	sort.Float64s(queryDur)
	sort.Float64s(batchDur)
	q90 := queryDur[len(queryDur)*9/10]
	batchMed := batchDur[len(batchDur)/2]
	// Queries are atomic-load assembly (microseconds); batches are
	// millisecond-scale absorbs. Allow generous scheduler noise with an
	// absolute floor, but a reader-pays regression — where q90 rises to
	// roughly a batch absorb — must fail.
	bound := batchMed / 4
	if floor := 2e-3; bound < floor {
		bound = floor
	}
	if q90 > bound {
		t.Fatalf("query p90 %.3fms vs median batch %.3fms: queries are waiting out batch absorbs",
			q90*1e3, batchMed*1e3)
	}
}

// TestSnapshotReadYourWritesAfterBatch pins the ?wait=1 contract under
// writer publication: once ObserveBatch returns, a Snapshot taken by any
// goroutine reflects the batch with no extra synchronization.
func TestSnapshotReadYourWritesAfterBatch(t *testing.T) {
	s := freshTestStack(4, 3, 1<<18)
	s.ObserveBatch(freshTestBatch(7, 20_000, 5_000))
	_ = s.Snapshot() // arm publication

	const user = 999_999_937 // fresh user, not in the workload range
	batch := make([]Edge, 64)
	for i := range batch {
		batch[i] = Edge{User: user, Item: uint64(i)}
	}
	s.ObserveBatch(batch)
	if got := s.Snapshot().Estimate(user); got <= 0 {
		t.Fatalf("estimate %v for a user whose batch already returned", got)
	}
	// And per-edge writes publish too. (Several items: a single observation
	// can legitimately estimate 0 when it lands on an already-set shared
	// register — the sketch property, not a publication question.)
	const user2 = 999_999_991
	for i := 0; i < 64; i++ {
		s.Observe(user2, uint64(i))
	}
	if got := s.Snapshot().Estimate(user2); got <= 0 {
		t.Fatalf("estimate %v for a user whose Observe calls already returned", got)
	}
}

// TestWritesRepublishWithoutReaders pins that the writers, not the
// readers, keep the published view current: after a write, the published
// pointer already holds a view with the write in it, before anyone calls
// Snapshot again. A design where only a reader refreshes the view keeps the
// superseded cut — and the per-user tables it pins — published through
// every write-only stretch.
func TestWritesRepublishWithoutReaders(t *testing.T) {
	s := freshTestStack(4, 3, 1<<18)
	s.ObserveBatch(freshTestBatch(5, 10_000, 2_000))
	taken := s.Snapshot() // arms publication

	const user = 999_999_937 // fresh user, not in the workload range
	batch := make([]Edge, 64)
	for i := range batch {
		batch[i] = Edge{User: user, Item: uint64(i)}
	}
	s.ObserveBatch(batch)

	pub := s.set.Load()
	if pub == taken {
		t.Fatal("a write left the pre-write view published")
	}
	if got := pub.Estimate(user); got <= 0 {
		t.Fatalf("published view estimates %v for a user whose batch already returned", got)
	}
	if got := taken.Estimate(user); got != 0 {
		t.Fatalf("the taken view moved: estimate %v for a user written after it", got)
	}
}

// TestPublishKeepsConcurrentShardWrites races one writer per shard, each
// feeding its own user through ObserveShardBatch and reading that user back
// from Snapshot after every batch: the published view must show exactly
// the estimate a sequential twin has after the same batch. Writers on
// different shards publish concurrently; if one could install a copy of
// the view that predates another's write (a plain Store instead of the
// CompareAndSwap), the other writer would read its own write back lost.
func TestPublishKeepsConcurrentShardWrites(t *testing.T) {
	const (
		shards  = 4
		mbits   = 1 << 22
		batches = 1500
		size    = 16
	)
	s := freshTestStack(shards, 2, mbits)

	// One user per shard, its batches (a fresh item every edge), and the
	// estimates a standalone twin of its shard has after each batch.
	users := make([]uint64, shards)
	for u, found := uint64(1), 0; found < shards; u++ {
		if sh := s.ShardIndex(u); users[sh] == 0 {
			users[sh] = u
			found++
		}
	}
	feed := make([][][]Edge, shards)
	want := make([][]float64, shards)
	for sh := range feed {
		twin := NewWindowed(func() Estimator {
			return NewFreeRS(mbits/shards, WithSeed(1))
		}, WithGenerations(2))
		feed[sh] = make([][]Edge, batches)
		want[sh] = make([]float64, batches)
		for i := range feed[sh] {
			b := make([]Edge, size)
			for j := range b {
				b[j] = Edge{User: users[sh], Item: uint64(i*size + j)}
			}
			feed[sh][i] = b
			twin.ObserveBatch(b)
			want[sh][i] = twin.Estimate(users[sh])
		}
	}

	_ = s.Snapshot() // arm publication
	var wg sync.WaitGroup
	errs := make(chan string, shards)
	for sh := range feed {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i, b := range feed[sh] {
				s.ObserveShardBatch(sh, b)
				if got := s.Snapshot().Estimate(users[sh]); got != want[sh][i] {
					errs <- fmt.Sprintf("shard %d batch %d: published estimate %v, sequential twin %v",
						sh, i, got, want[sh][i])
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	requireViewMatchesCut(t, s)
}

// requireViewMatchesCut checks that the published view of a stack nobody is
// writing answers exactly as a FullSnapshot cut taken now: every user's
// estimate, TotalDistinct and NumUsers.
func requireViewMatchesCut(t *testing.T, s *Sharded) {
	t.Helper()
	v, cut := s.Snapshot(), s.FullSnapshot()
	if got, want := v.NumUsers(), cut.NumUsers(); got != want {
		t.Fatalf("published view counts %d users, full cut %d", got, want)
	}
	if got, want := v.TotalDistinct(), cut.TotalDistinct(); got != want {
		t.Fatalf("published view total %v, full cut %v", got, want)
	}
	cut.RangeUsers(func(u uint64, e float64) {
		if got := v.Estimate(u); got != e {
			t.Fatalf("user %d: published view estimates %v, full cut %v", u, got, e)
		}
	})
}

// TestPublishViewRaceStorm hammers Snapshot from many goroutines against
// concurrent writers and rotations — the -race regression test for the
// publication CAS — and then checks the settled published view answers
// exactly as a full cut does, and is reused while nothing writes.
func TestPublishViewRaceStorm(t *testing.T) {
	s := freshTestStack(4, 3, 1<<18)
	s.ObserveBatch(freshTestBatch(13, 10_000, 2_000))

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			b := freshTestBatch(seed, 2_048, 2_000)
			for {
				select {
				case <-done:
					return
				default:
					s.ObserveBatch(b)
				}
			}
		}(uint64(17 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				s.Rotate()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := hashing.NewRNG(seed)
			for {
				select {
				case <-done:
					return
				default:
					v := s.Snapshot()
					_ = v.Estimate(uint64(rng.Intn(2_000) + 1))
					if rng.Intn(8) == 0 {
						_, _ = v.TotalDistinctMerged()
					}
				}
			}
		}(uint64(31 + r))
	}
	time.Sleep(300 * time.Millisecond)
	close(done)
	wg.Wait()

	requireViewMatchesCut(t, s)
	final := s.Snapshot()
	if again := s.Snapshot(); again != final {
		t.Fatal("repeated Snapshot of an unwritten stack did not reuse the published view")
	}
}
