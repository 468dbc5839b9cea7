package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stream"
)

// metric is one reported number with its unit and the count of samples it
// was computed from.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// jsonValue is the value as JSON can carry it: null for a non-finite
// value, which only a run that already failed its gates reports.
func (m metric) jsonValue() any {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return nil
	}
	return m.Value
}

func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{"value": m.jsonValue(), "unit": m.Unit, "n": m.N})
}

// run is one workload run against a fresh daemon: its settings, the
// samples it collects, and the metrics it derives from them.
type run struct {
	wl    *workload
	seed  uint64
	smoke bool
	bin   string
	dir   string  // this run's working directory (WAL, spool)
	tr    *tracer // nil: untraced

	d      *daemon
	setups []float64

	// Samples. Latencies are measured from each operation's due time.
	acks, ests, tops, vis lat
	// lag is how late the generator sent, in ms: each open-loop send's time
	// past its due time.
	lag         []float64
	ops, failed int // measured operations (every latency sample) and failures among them

	// The timed window. acked counts the edges acked inside it as they
	// are acked, for the per-second rates.
	winEdges int
	acked    atomic.Int64
	use      *usage
	loadCPU  time.Duration
	scrapes  []scrape // traced runs: window start, 1 Hz samples, window end, run end

	rse      float64
	rseUsers int
	jobs     []float64 // capacity jobs' rates, edges/s
	gates    []string

	metrics map[string]metric
}

func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// gate records a correctness failure; the run still reports its metrics.
func (r *run) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// check sorts an operation error into a gate failure, which it records,
// and any other error, which it returns.
func (r *run) check(err error) error {
	var ge *gateError
	if errors.As(err, &ge) {
		r.gate("%s", ge.msg)
		return nil
	}
	return err
}

func (r *run) floor(q float64) int {
	if r.smoke {
		return 1
	}
	return minSamples(q)
}

// length is the timed window's length: runSeconds, or 1 s in smoke runs.
func (r *run) length() time.Duration {
	if r.smoke {
		return time.Second
	}
	return runSeconds * time.Second
}

// scaled shrinks a count in smoke runs, which only prove the plumbing.
func (r *run) scaled(n, smoke int) int {
	if r.smoke {
		return smoke
	}
	return n
}

// daemonArgs are the flags every workload's daemon gets: the server
// defaults spelled out, ephemeral ports, and a WAL in the run's directory.
func (r *run) daemonArgs(extra ...string) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0",
		"-method", "freers", "-shards", "4", "-mbits", strconv.Itoa(1 << 26), "-gens", "4",
		"-wal-dir", filepath.Join(r.dir, "wal"), "-wal-sync", r.wl.walSync,
	}
	return append(args, extra...)
}

// start execs a daemon and records its time to healthy as one set-up.
func (r *run) start(args []string) (*daemon, error) {
	d, took, err := startDaemon(r.bin, args)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, took.Seconds())
	r.tr.record("setup.start", 0, time.Now().Add(-took), time.Now())
	return d, nil
}

// freshStarts sets up a daemon on an empty directory n times, keeping the
// last one: set-up time is the median of the n set-ups, each the time from
// exec until healthy plus prepare (nil: nothing more), which loads the
// state the timed phase starts from.
func (r *run) freshStarts(n int, args []string, prepare func() error) error {
	for i := 0; i < n; i++ {
		if r.d != nil {
			r.d.kill()
			r.d = nil
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return err
		}
		d, err := r.start(args)
		if err != nil {
			return err
		}
		r.d = d
		if prepare != nil {
			t0 := time.Now()
			if err := prepare(); err != nil {
				return err
			}
			r.setups[len(r.setups)-1] += time.Since(t0).Seconds()
		}
	}
	return nil
}

// window measures the daemon over the timed phase: CPU and RSS always, and
// in traced runs /metrics at both ends and at 1 Hz in between. Calling
// stop ends the window.
func (r *run) window() (stop func() error, err error) {
	var ru0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	if err := r.markScrape(); err != nil {
		return nil, err
	}
	u, err := startUsage(r.d.pid(), r.acked.Load)
	if err != nil {
		return nil, err
	}
	halt, halted := make(chan struct{}), make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(halted)
		if r.tr == nil {
			return
		}
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-halt:
				return
			case <-t.C:
				if scrapeErr = r.markScrape(); scrapeErr != nil {
					return
				}
			}
		}
	}()
	return func() error {
		close(halt)
		<-halted
		if err := u.end(); err != nil {
			return err
		}
		r.use = u
		var ru1 syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
			return err
		}
		r.loadCPU = rusageCPU(ru1) - rusageCPU(ru0)
		if scrapeErr != nil {
			return scrapeErr
		}
		return r.markScrape()
	}, nil
}

// measure holds the measurement window open over [o.from, o.end), running
// during (when non-nil) inside it.
func (r *run) measure(o *openLoop, during func() error) error {
	sleepUntil(o.from)
	stop, err := r.window()
	if err != nil {
		return err
	}
	if during != nil {
		if err := during(); err != nil {
			_ = stop() // during's failure is the error to report
			return err
		}
	}
	sleepUntil(o.end)
	return stop()
}

// markScrape appends a scrape at a phase boundary in traced runs.
func (r *run) markScrape() error {
	if r.tr == nil {
		return nil
	}
	s, err := r.d.scrape()
	if err != nil {
		return err
	}
	r.tr.addScrape(s)
	r.scrapes = append(r.scrapes, s)
	return nil
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// flush waits until every acked batch is absorbed.
func (r *run) flush() error {
	return post(r.d.ctl, r.d.base+"/flush", "text/plain", nil)
}

// openLoop drives CWT1 connections on a fixed schedule: a frame of
// frameEdges every period from start, for frames due before end, frame f
// on connection f mod conns, with the probe users due by each frame's due
// time appended to it. Frames due before from are warm-up: sent, but not
// measured.
type openLoop struct {
	start, from, end time.Time
	period           time.Duration
	frameEdges       int
	conns            int
	probeEvery       time.Duration // 0: no probes
}

// probeFrame is the index of the frame that carries probe k: the first
// frame due at or after the probe's own due time.
func (o *openLoop) probeFrame(k int64) int64 {
	p := int64(o.period)
	return (k*int64(o.probeEvery) + p - 1) / p
}

func (o *openLoop) frameDue(f int64) time.Time { return o.start.Add(time.Duration(f) * o.period) }

// probes is how many probes the schedule carries.
func (o *openLoop) probes() int64 {
	if o.probeEvery == 0 {
		return 0
	}
	n := int64(0)
	for o.frameDue(o.probeFrame(n)).Before(o.end) {
		n++
	}
	return n
}

// sendFrames runs the CWT1 side of an open loop and returns the frames'
// send lateness in ms.
func (o *openLoop) sendFrames(cs []*cwt1, g *gen) ([]float64, error) {
	var lag []float64
	buf := make([]stream.Edge, o.frameEdges, o.frameEdges+probeItems) // room for a frame's usual one probe
	nextProbe := int64(0)
	for f := int64(0); ; f++ {
		due := o.frameDue(f)
		if !due.Before(o.end) {
			return lag, nil
		}
		edges := buf[:o.frameEdges]
		g.fill(edges)
		var probes []int64
		for o.probeEvery > 0 && o.probeFrame(nextProbe) == f {
			edges = appendProbe(edges, uint64(nextProbe))
			probes = append(probes, nextProbe)
			nextProbe++
		}
		sleepUntil(due)
		if !due.Before(o.from) {
			lag = append(lag, ms(time.Since(due)))
		}
		if err := cs[f%int64(len(cs))].sendProbes(edges, due, probes); err != nil {
			return lag, err
		}
	}
}

// concurrently runs fns on their own goroutines and returns the first
// error once all have finished.
func concurrently(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for i, fn := range fns {
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// httpLoad is the open-loop schedule of the HTTP load connection: an
// /estimate every estEvery, a /topk?k=100 every topkEvery (0 disables
// either), and polls for every probe the frame schedule carries, from the
// moment its frame is acked until the probe is visible. One connection
// serves all of it in due-time order, so a slow answer delays whatever is
// due next, and that delay counts.
type httpLoad struct {
	o                   *openLoop
	estEvery, topkEvery time.Duration
	users               int // /estimate draws users from the load distribution over [0, users)
	acks                <-chan probeAck
	cwt1Done            <-chan struct{} // closes if the CWT1 connection's ack reader stops
}

// pollEvery spaces a probe's polls after the first, which goes out as soon
// as the probe's frame is acked: the ack means the frame is logged and
// queued, so visibility is usually one absorb away.
const pollEvery = 500 * time.Microsecond

type probe struct {
	k         int64
	due, next time.Time
	span      int64
}

// run executes the schedule and returns its send lateness in ms.
func (h *httpLoad) run(r *run) ([]float64, error) {
	o := h.o
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	rng := newGen(r.seed, tagQuery, h.users, 0, 0)
	never := o.end.Add(time.Hour)
	nextEst, nextTop := never, never
	if h.estEvery > 0 {
		nextEst = o.start
	}
	if h.topkEvery > 0 {
		nextTop = o.start
	}
	var (
		lag     []float64
		active  []*probe
		pending = o.probes() // probes whose frame is not acked yet
	)
	for {
		// The earliest due event: an estimate, a top-k read, or an active
		// probe's next poll.
		t, pick := nextEst, 0
		if nextTop.Before(t) {
			t, pick = nextTop, 1
		}
		pi := -1
		for i, p := range active {
			if p.next.Before(t) {
				t, pick, pi = p.next, 2, i
			}
		}
		if !t.Before(o.end) && len(active) == 0 && pending == 0 {
			return lag, nil
		}
		if d := time.Until(t); pending > 0 && d > 0 {
			wait := time.NewTimer(d)
			select {
			case a := <-h.acks:
				wait.Stop()
				pending--
				p := &probe{k: a.k, due: o.frameDue(o.probeFrame(a.k)), next: a.at}
				if !p.due.Before(o.from) {
					p.span = r.tr.begin("probe", 0, p.due)
					if !a.ok {
						r.vis.fail()
						r.tr.end(p.span, a.at)
						continue
					}
				}
				active = append(active, p)
				continue
			case <-h.cwt1Done:
				wait.Stop()
				return lag, errors.New("CWT1 connection lost while probes were pending")
			case <-wait.C:
			}
		}
		sleepUntil(t)
		measured := !t.Before(o.from)
		if measured && pick != 2 {
			lag = append(lag, ms(time.Since(t)))
		}
		switch pick {
		case 0:
			u := uint64(rng.user())
			_, err := estimate(c, r.d.base, u, &buf)
			now := time.Now()
			if measured {
				r.tr.record("estimate", 0, t, now)
				if err != nil {
					r.ests.fail()
				} else {
					r.ests.add(ms(now.Sub(t)))
				}
			}
			nextEst = nextEst.Add(h.estEvery)
			if !nextEst.Before(o.end) {
				nextEst = never
			}
		case 1:
			err := topk(c, r.d.base, 100, &buf)
			now := time.Now()
			if measured {
				r.tr.record("topk", 0, t, now)
				if err := r.check(err); err != nil {
					r.tops.fail()
				} else {
					r.tops.add(ms(now.Sub(t)))
				}
			}
			nextTop = nextTop.Add(h.topkEvery)
			if !nextTop.Before(o.end) {
				nextTop = never
			}
		case 2:
			p := active[pi]
			t0 := time.Now()
			e, err := estimate(c, r.d.base, probeBase+uint64(p.k), &buf)
			now := time.Now()
			r.tr.record("probe.poll", p.span, t0, now)
			done, seen := false, err == nil && e > 0
			switch {
			case seen:
				done = true
				if !p.due.Before(o.from) {
					r.vis.add(ms(now.Sub(p.due)))
				}
			case now.Sub(p.due) > 5*time.Second:
				done = true
				if !p.due.Before(o.from) {
					r.vis.fail()
				}
			default:
				p.next = p.next.Add(pollEvery)
			}
			if done {
				r.tr.end(p.span, now)
				active = append(active[:pi], active[pi+1:]...)
			}
		}
	}
}
