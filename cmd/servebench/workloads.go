package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/stream"
)

// workload is one traffic mix against a fresh daemon. The fields besides
// run describe its input and server configuration to the in-process layer
// replay (layers.go).
type workload struct {
	name       string
	users      int    // U: the load's users are floor(U·x³)
	frameEdges int    // edges per ingest frame or batch
	walSync    string // -wal-sync
	epochEdges int    // load edges per epoch (rate × -epoch); 0: never rotates
	run        func(*run) error
}

var workloads = []*workload{
	{name: "ingest_bulk", users: 1 << 18, frameEdges: 4096, walSync: "interval", run: ingestBulk},
	{name: "serve_mixed", users: 1 << 20, frameEdges: 2048, walSync: "interval", epochEdges: serveRate, run: serveMixed},
	{name: "analytics", users: 1 << 15, frameEdges: 1024, walSync: "interval", epochEdges: 5 * analyticsRate, run: analytics},
	{name: "durable_restart", users: 1 << 18, frameEdges: 256, walSync: "always", run: durableRestart},
}

// Workload sizes. Every open-loop rate keeps the CPUs mostly idle, so a
// neighbour's burst on the shared host slows the daemon without backing it
// up. ingest_bulk's bulkRate is about an eighth of the daemon's unarmed
// capacity on 2 vCPUs, for a second reason: at that rate an unread daemon
// allocates so little that its heap does not reach its first collection
// goal until well after the window. The runtime hands freed memory back
// slowly, so a collection inside the window leaves RSS at its peak: at
// 2M edges/s the first one fell just after the window in most runs and
// inside it in a few, and rss_mean_mb jumped by a quarter in those.
// ingest_bulk's first bulkWarmup of load grows the daemon's per-user
// tables to their working size before the window opens.
const (
	bulkRate      = 1000000
	bulkWarmup    = 2500 * time.Millisecond
	serveRate     = 150000
	analyticsRate = 100000
	analyticsLoad = 2 << 20 // preloaded in set-up
	durableRate   = 25600   // 100 batches/s of 256 edges
	preloadEdges  = 2 << 20 // durable_restart's, before the SIGKILL
	// checkpointEvery spaces durable_restart's checkpoints: three land in
	// a 15 s window, each in the middle of its own 5 s.
	checkpointEvery = 5 * time.Second
	setupRepeats    = 5  // durable_restart's recoveries and analytics' preloaded starts
	freshSetups     = 11 // ingest_bulk's and serve_mixed's exec-until-healthy set-ups, ~60 ms each
	capacityJobs    = 5
	capacityEdges   = 2 << 20
	// openLoopWindow caps the unacked frames on each open-loop CWT1
	// connection: 65 ms of ingest_bulk's frames, over fifty times their
	// usual ack latency. When the daemon stalls for longer, the generator waits
	// (its lag and the due-time latencies show it) instead of piling the
	// backlog into the daemon, whose heap, and RSS for the rest of the run,
	// would grow with it.
	openLoopWindow = 8
)

func dup() float64 { return datagen.DefaultDuplicateRate }

// push is what one sending client measured: its acks, the edges acked,
// and how late each send ran.
type push struct {
	acks  lat
	edges int
	lag   []float64
}

// preload pushes total edges of g into the daemon as fast as it takes
// them — a closed loop over 2 CWT1 connections (window 64), each taking
// the next 4096-edge frame of the stream when it has a free slot — and
// waits until they are absorbed. A refused frame is fatal: g's counts
// would no longer be the daemon's truth.
func (r *run) preload(g *gen, total int) error {
	var mu sync.Mutex
	sent := 0
	next := func(buf []stream.Edge) []stream.Edge {
		mu.Lock()
		defer mu.Unlock()
		n := min(len(buf), total-sent)
		g.fill(buf[:n])
		sent += n
		return buf[:n]
	}
	var cs []*cwt1
	var fns []func() error
	for i := 0; i < 2; i++ {
		c, err := dialCWT1(r.d.tcpAddr, 64, nil)
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return err
		}
		cs = append(cs, c)
		fns = append(fns, func() error {
			buf := make([]stream.Edge, 4096)
			for {
				e := next(buf)
				if len(e) == 0 {
					return c.drain()
				}
				if err := c.send(e, time.Now()); err != nil {
					return err
				}
			}
		})
	}
	err := concurrently(fns...)
	refused := 0
	for _, c := range cs {
		if cerr := c.close(); err == nil {
			err = cerr
		}
		refused += c.acks.failed
	}
	if err == nil && refused > 0 {
		err = fmt.Errorf("preload: %d frames refused", refused)
	}
	if err != nil {
		return err
	}
	return r.flush()
}

// ingestBulk: open loop, bulkRate edges/s over 2^18 users in 4096-edge
// frames alternating over 2 CWT1 connections, into a daemon nothing reads.
// The schedule and the capacity jobs after it are fixed, so the sketch they
// leave, and user_rse, are the same whatever the server's speed. The
// capacity jobs run before any read, so they measure unarmed ingest. The
// accuracy queries come last, and give the estimate latency.
func ingestBulk(r *run) error {
	if err := r.freshStarts(r.scaled(freshSetups, 2), r.daemonArgs(), nil); err != nil {
		return err
	}
	g := newGen(r.seed, tagLoad, r.wl.users, 0, dup())
	o := r.newOpenLoop(r.scaled(bulkRate, bulkRate/16), r.warmup(bulkWarmup), 0, 0)
	o.conns = 2
	if err := r.openLoopPhase(o, nil, g); err != nil {
		return err
	}
	if err := r.flush(); err != nil {
		return err
	}
	if r.acks.failed > 0 {
		r.gate("%d frames refused: the exact counts no longer describe the daemon", r.acks.failed)
	}
	if err := r.capacity(g); err != nil {
		return err
	}

	if err := r.checkTotal(g.distinct()); err != nil {
		return err
	}
	if err := r.accuracy(g, &r.ests); err != nil {
		return err
	}
	return r.markScrape()
}

// capacity measures how fast the daemon takes ingest when nothing holds the
// load back: capacityJobs closed-loop fixed jobs of capacityEdges edges of
// g, in preload's shape (2 CWT1 connections, window 64, 4096-edge frames),
// each timed from its first send until every edge is acked and absorbed.
// ingest_edges_per_s is the fastest job's rate, since a neighbour's burst on
// the shared host can only slow a job. The jobs run after the window, so
// they disturb nothing else the workload measures; their edges come from g,
// so g's counts stay the daemon's truth.
func (r *run) capacity(g *gen) error {
	n := r.scaled(capacityEdges, 100000)
	for i := 0; i < r.scaled(capacityJobs, 1); i++ {
		t0 := time.Now()
		if err := r.preload(g, n); err != nil {
			return fmt.Errorf("capacity job: %w", err)
		}
		r.jobs = append(r.jobs, float64(n)/time.Since(t0).Seconds())
	}
	return nil
}

// openLoopPhase runs the timed phase of an open-loop workload: o.conns
// CWT1 connections on o's frame schedule and, unless h is nil, one HTTP
// connection on h's, with the measurement window over [o.from, o.end).
func (r *run) openLoopPhase(o *openLoop, h *httpLoad, g *gen) error {
	cs := make([]*cwt1, max(o.conns, 1))
	acks := make(chan probeAck, o.probes())
	for i := range cs {
		c, err := dialCWT1(r.d.tcpAddr, openLoopWindow, r.tr)
		if err != nil {
			for _, c := range cs[:i] {
				c.close()
			}
			return err
		}
		c.from, c.progress, c.probeAcks = o.from, &r.acked, acks
		cs[i] = c
	}
	var frameLag, httpLag []float64
	fns := []func() error{
		func() error {
			var err error
			frameLag, err = o.sendFrames(cs, g)
			return err
		},
		func() error { return r.measure(o, nil) },
	}
	if h != nil {
		h.acks, h.cwt1Done = acks, cs[0].done
		fns = append(fns, func() error {
			var err error
			httpLag, err = h.run(r)
			return err
		})
	}
	err := concurrently(fns...)
	for _, c := range cs {
		if cerr := c.close(); err == nil {
			err = cerr
		}
		r.acks.merge(&c.acks)
		r.winEdges += c.edges
	}
	r.lag = append(frameLag, httpLag...)
	return err
}

// newOpenLoop schedules frames of r.wl.frameEdges at rate edges/s. The
// measured window [from, end) lasts the run length and starts after
// warmup of load, half an epoch into one of the daemon's epochs of length
// tick (0: the daemon does not rotate): a window of whole epochs then holds
// the same number of rotations in every run, each in the same place.
func (r *run) newOpenLoop(rate int, warmup, probeEvery, tick time.Duration) *openLoop {
	from := time.Now().Add(10*time.Millisecond + warmup)
	if tick > 0 {
		from = r.d.aligned(from, tick)
	}
	o := &openLoop{
		start:      from.Add(-warmup),
		from:       from,
		period:     time.Duration(float64(r.wl.frameEdges) / float64(rate) * float64(time.Second)),
		frameEdges: r.wl.frameEdges,
		probeEvery: probeEvery,
	}
	o.end = o.from.Add(r.length())
	return o
}

// serveMixed: the serving shape. Open loop: serveRate edges/s in
// 2048-edge frames on one CWT1 connection; on one HTTP connection
// /estimate at 100/s and the polls for a probe user that rides a frame
// every 14 ms; 1 s epochs. Accuracy is scored on a burst afterwards.
func serveMixed(r *run) error {
	if err := r.freshStarts(r.scaled(freshSetups, 2), r.daemonArgs("-epoch", "1s"), nil); err != nil {
		return err
	}
	g := newGen(r.seed, tagLoad, r.wl.users, 0, dup())
	o := r.newOpenLoop(serveRate, r.warmup(4*time.Second), 14*time.Millisecond, time.Second)
	h := &httpLoad{o: o, estEvery: 10 * time.Millisecond, users: r.wl.users}
	if err := r.openLoopPhase(o, h, g); err != nil {
		return err
	}
	var discard lat // the window's estimates give the latency
	if err := r.burstReads(time.Second, &discard); err != nil {
		return err
	}
	return r.markScrape()
}

func (r *run) warmup(d time.Duration) time.Duration {
	if r.smoke {
		return 500 * time.Millisecond
	}
	return d
}

// analytics: 2^15 users preloaded in set-up, then open loop: 100k edges/s
// in 1024-edge frames (about 98 frames/s, more than the queries, so nearly
// every /topk re-folds the window) and /topk?k=100 at 80/s, 5 s epochs.
func analytics(r *run) error {
	var g *gen
	preload := func() error {
		g = newGen(r.seed, tagLoad, r.wl.users, 0, dup())
		return r.preload(g, r.scaled(analyticsLoad, 100000))
	}
	if err := r.freshStarts(r.scaled(setupRepeats, 1), r.daemonArgs("-epoch", "5s"), preload); err != nil {
		return err
	}
	o := r.newOpenLoop(analyticsRate, r.warmup(time.Second), 0, 5*time.Second)
	h := &httpLoad{o: o, topkEvery: time.Second / 80, users: r.wl.users}
	if err := r.openLoopPhase(o, h, g); err != nil {
		return err
	}
	if err := r.burstReads(5*time.Second, &r.ests); err != nil {
		return err
	}
	return r.markScrape()
}

// durableRestart: set-up writes preloadEdges into a fresh -wal-sync always
// daemon, SIGKILLs it, and restarts it on the same WAL five times (SIGKILL
// between), so set-up is recovery replay. Accuracy (with the estimate
// latency) and the merged total are checked on the recovered state. Then
// two keep-alive HTTP clients POST 256-edge CWB1 batches on an open-loop
// schedule (durableRate in all) while a checkpoint is POSTed every
// checkpointEvery.
//
// The schedule is open rather than closed because with readers armed a
// closed loop swings between two regimes — absorbing each batch alone,
// copying every touched shard's arrays per batch, or falling behind and
// coalescing queued batches into one copy — and its throughput doubled or
// halved from run to run on the same seed. Checkpoints are requested
// rather than left to -checkpoint-every so that every window holds the same
// number, in the same places, and none land in the set-up's accuracy pass.
func durableRestart(r *run) error {
	args := r.daemonArgs("-spool", filepath.Join(r.dir, "spool"))
	if err := r.freshStarts(1, args, nil); err != nil {
		return err
	}
	r.setups = r.setups[:0] // the fresh start is not a recovery
	g := newGen(r.seed, tagLoad, r.wl.users, 0, dup())
	if err := r.preload(g, r.scaled(preloadEdges, 100000)); err != nil {
		return err
	}
	for i := 0; i < r.scaled(setupRepeats, 2); i++ {
		r.d.kill()
		d, err := r.start(args)
		if err != nil {
			return err
		}
		r.d = d
	}
	if err := r.accuracy(g, &r.ests); err != nil {
		return err
	}
	if err := r.checkTotal(g.distinct()); err != nil {
		return err
	}

	var mu sync.Mutex
	next := func(buf []stream.Edge) {
		mu.Lock()
		defer mu.Unlock()
		g.fill(buf)
	}
	o := r.newOpenLoop(durableRate, r.warmup(time.Second), 0, 0)
	var clients [2]push
	err := concurrently(
		func() error { return r.postSchedule(&clients[0], o, 0, next) },
		func() error { return r.postSchedule(&clients[1], o, o.period, next) },
		func() error {
			return r.measure(o, func() error {
				for t := o.from.Add(checkpointEvery / 2); t.Before(o.end); t = t.Add(checkpointEvery) {
					sleepUntil(t)
					if err := post(r.d.ctl, r.d.base+"/checkpoint", "text/plain", nil); err != nil {
						return err
					}
				}
				return nil
			})
		},
	)
	if err != nil {
		return err
	}
	for i := range clients {
		r.acks.merge(&clients[i].acks)
		r.winEdges += clients[i].edges
		r.lag = append(r.lag, clients[i].lag...)
	}
	return r.markScrape()
}

// postSchedule is one keep-alive HTTP ingest client on o's schedule,
// shifted by offset and sending every other slot (two clients interleave):
// each POSTs one CWB1 batch from next. A refused batch counts as failed
// and its edges stay out of the acked count.
func (r *run) postSchedule(p *push, o *openLoop, offset time.Duration, next func([]stream.Edge)) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	batch := make([]stream.Edge, r.wl.frameEdges)
	var frame []byte
	for due := o.start.Add(offset); due.Before(o.end); due = due.Add(2 * o.period) {
		next(batch)
		frame = stream.AppendWire(frame[:0], batch)
		sleepUntil(due)
		measured := !due.Before(o.from)
		if measured {
			p.lag = append(p.lag, ms(time.Since(due)))
		}
		err := post(c, r.d.base+"/ingest", stream.WireContentType, frame)
		now := time.Now()
		if !measured {
			continue
		}
		r.tr.record("ingest", 0, due, now)
		if err != nil {
			p.acks.fail()
			continue
		}
		p.acks.add(ms(now.Sub(due)))
		p.edges += len(batch)
		r.acked.Add(int64(len(batch)))
	}
	return nil
}

// finish derives the end-to-end metrics from the run's samples. Throughput
// and each latency class are reported only by the workloads that measure
// them (a class with no samples was never attempted).
func (r *run) finish() []error {
	var errs []error
	r.metrics = map[string]metric{}
	if len(r.jobs) > 0 {
		r.set("ingest_edges_per_s", slices.Max(r.jobs), "edges/s", len(r.jobs))
	}
	for _, c := range []struct {
		name string
		l    *lat
	}{{"ack", &r.acks}, {"estimate", &r.ests}, {"topk", &r.tops}, {"visible", &r.vis}} {
		if len(c.l.ms) == 0 {
			continue
		}
		for _, q := range []float64{0.5, 0.99} {
			v, err := quantile(c.l.ms, q, r.floor(q))
			if err != nil {
				errs = append(errs, err)
				v = math.NaN()
			}
			r.set(fmt.Sprintf("%s_p%g_ms", c.name, 100*q), v, "ms", len(c.l.ms))
		}
	}
	r.set("cpu_ns_per_edge", r.use.perSecond(func(s slice) float64 { return float64(s.cpu.Nanoseconds()) / float64(s.edges) }),
		"ns", len(r.use.slices))
	r.set("rss_mean_mb", mean(r.use.rss)/(1<<20), "MB", len(r.use.rss))
	r.set("user_rse", r.rse, "ratio", r.rseUsers)
	r.set("setup_s", median(r.setups), "s", len(r.setups))
	for _, l := range []*lat{&r.acks, &r.ests, &r.tops, &r.vis} {
		r.failed += l.failed
		r.ops += len(l.ms)
	}
	return errs
}
