package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"repro/internal/stream"
)

// The accuracy pass runs outside the timed window, on a daemon with no
// load, over the control connection: one /estimate per sampled user, back
// to back, each scored against the exact count.

// quiesce prepares the accuracy pass: it gives the daemon a moment to
// finish collecting what the load left behind, collects the generator's
// own garbage, and sends a few unmeasured reads, so the first measured ones
// pay neither a collection nor a cold connection.
func (r *run) quiesce() {
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		estimate(r.d.ctl, r.d.base, 0, &buf)
	}
}

// score accumulates the per-user relative errors of one accuracy sample.
type score struct {
	g       *gen
	sq      float64
	n       int
	buckets map[int]*bucket // by b: n in [4^b, 4^(b+1))
}

type bucket struct {
	sq float64
	n  int
}

// accuracySample is the seeded sample of g's users with at least 16
// distinct items that user_rse is computed over.
func (r *run) accuracySample(g *gen) []int {
	return g.sample(r.seed, r.scaled(16384, 512), 16)
}

// accuracy quiesces the daemon, then queries /estimate once for each user
// of g's accuracy sample, recording the latency into est, scoring the
// answer against g's exact count, and gating the score (finishScore).
func (r *run) accuracy(g *gen, est *lat) error {
	r.quiesce()
	var sc score
	var buf bytes.Buffer
	for _, u := range r.accuracySample(g) {
		t0 := time.Now()
		e, err := estimate(r.d.ctl, r.d.base, g.base+uint64(u), &buf)
		now := time.Now()
		r.tr.record("estimate", 0, t0, now)
		if err != nil {
			est.fail()
			continue
		}
		est.add(ms(now.Sub(t0)))
		sc.add(g.counts[u], e)
	}
	return r.finishScore(&sc)
}

func (sc *score) add(count uint32, e float64) {
	n := float64(count)
	rel := (e - n) / n
	sc.sq += rel * rel
	sc.n++
	b := (bits.Len32(count) - 1) / 2
	if sc.buckets == nil {
		sc.buckets = map[int]*bucket{}
	}
	if sc.buckets[b] == nil {
		sc.buckets[b] = &bucket{}
	}
	sc.buckets[b].sq += rel * rel
	sc.buckets[b].n++
}

// Accuracy gates. The ceiling is far above what FreeRS delivers at these
// loads (about 0.3 at most, on ingest_bulk's full sketch); it exists to
// catch a broken estimator, a dropped or doubled batch, or a mis-routed
// shard, not drift.
const (
	rseCeiling     = 0.5
	minBucketUsers = 50
	totalTolerance = 0.02
)

// finishScore sets the run's user_rse from sc and gates every power-of-4
// cardinality bucket with enough users on the ceiling.
func (r *run) finishScore(sc *score) error {
	if sc.n == 0 {
		return fmt.Errorf("every accuracy query failed")
	}
	r.rse, r.rseUsers = math.Sqrt(sc.sq/float64(sc.n)), sc.n
	keys := make([]int, 0, len(sc.buckets))
	for b := range sc.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	for _, b := range keys {
		bk := sc.buckets[b]
		if rse := math.Sqrt(bk.sq / float64(bk.n)); bk.n >= minBucketUsers && rse > rseCeiling {
			r.gate("user_rse %.3f over %d users with n in [%d,%d) exceeds %.2f",
				rse, bk.n, 1<<(2*b), 1<<(2*b+2), rseCeiling)
		}
	}
	return nil
}

// checkTotal gates /total?method=merged against the exact distinct count.
func (r *run) checkTotal(want float64) error {
	got, err := mergedTotal(r.d.ctl, r.d.base)
	if err != nil {
		return r.check(err)
	}
	if dev := math.Abs(got-want) / want; dev > totalTolerance {
		r.gate("/total?method=merged %.0f is %.2f%% off the exact %.0f (limit %.0f%%)",
			got, 100*dev, want, 100*totalTolerance)
	}
	return nil
}

// probeBase is the first probe user: probes are fresh users, disjoint from
// every dataset, so a nonzero estimate means the probe is visible.
const probeBase uint64 = 1 << 62

// probeItems is the number of distinct items one probe carries. A FreeRS
// estimate moves only when an edge raises a shared register, which a fresh
// edge does with probability q (about 0.2 in the fullest sketch here), so
// a single-edge probe could stay invisible forever; all 64 stay hidden with
// probability below 1e-6. They travel in one frame, so they become visible
// together.
const probeItems = 64

// appendProbe appends probe k's edges to dst.
func appendProbe(dst []stream.Edge, k uint64) []stream.Edge {
	for j := uint64(0); j < probeItems; j++ {
		dst = append(dst, stream.Edge{User: probeBase + k, Item: itemOf(probeBase+k, j)})
	}
	return dst
}

// burst sends a fresh, duplicate-free dataset over CWT1 as fast as the
// window allows and waits until it is absorbed; windowed workloads score
// accuracy on it. With no repeated items, an epoch boundary inside the
// burst splits users' items across generations without double counting
// any, so the exact counts stay the window's truth — as long as the burst
// and its queries finish before the oldest generation holding it retires,
// which burstReads checks.
func (r *run) burst() (*gen, error) {
	g := newGen(r.seed, tagBurst, r.scaled(1<<15, 1<<10), burstBase, 0)
	c, err := dialCWT1(r.d.tcpAddr, 64, nil)
	if err != nil {
		return nil, err
	}
	total := r.scaled(1500000, 50000)
	buf := make([]stream.Edge, 4096)
	for sent := 0; sent < total; sent += len(buf) {
		g.fill(buf)
		if err := c.send(buf, time.Now()); err != nil {
			c.close()
			return nil, err
		}
	}
	if err := c.close(); err != nil {
		return nil, err
	}
	if c.acks.failed > 0 {
		return nil, fmt.Errorf("burst: %d frames refused", c.acks.failed)
	}
	return g, r.flush()
}

// burstBase is the first accuracy-burst user.
const burstBase uint64 = 1 << 40

// burstReads scores accuracy on a fresh burst — a windowed workload's own
// users straddle expiring epochs, so their window truth is unknown —
// recording the queries' latency into est. The burst starts just after a
// rotation, so it lands in an empty generation and scores the same way
// every run.
func (r *run) burstReads(epochLen time.Duration, est *lat) error {
	sleepUntil(r.d.nextTick(time.Now(), epochLen).Add(30 * time.Millisecond))
	e0, err := epoch(r.d.ctl, r.d.base)
	if err != nil {
		return err
	}
	b, err := r.burst()
	if err != nil {
		return err
	}
	if err := r.accuracy(b, est); err != nil {
		return err
	}
	e1, err := epoch(r.d.ctl, r.d.base)
	if err != nil {
		return err
	}
	// Queries cover the newest gens-1 epochs at least, so the epoch the
	// burst started in must not have aged past that.
	if e1-e0 >= 4 {
		r.gate("accuracy burst outlived the window (%d rotations during it)", e1-e0)
	}
	return nil
}
