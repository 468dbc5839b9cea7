package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/cardserved from the tree under test into
// binDir and returns the binary's path.
func buildDaemon(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "cardserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cardserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cardserved: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running cardserved child process.
type daemon struct {
	cmd     *exec.Cmd
	ready   time.Time // when /healthz first answered: its tickers started just before
	base    string    // HTTP base URL
	tcpAddr string    // CWT1 address, "" when the listener is off
	ctl     *http.Client
	stderr  *tailBuffer
	exited  chan struct{}
	waitErr error
}

// startDaemon execs bin with args (which must bind -addr, and -tcp-addr if
// set, to port 0), learns the bound addresses from the daemon's start-up
// lines, and waits until /healthz answers. It returns the time from exec to
// healthy: the set-up cost a user pays on every (re)start.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, stderr: &tailBuffer{max: 16 << 10}, exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cardserved: %w", err)
	}
	lines := make(chan string, 8) // start-up lines; the reader never blocks on them after ready
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(60 * time.Second)
	for d.base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				d.kill()
				return nil, 0, fmt.Errorf("cardserved exited during start-up: %v\n%s", d.waitErr, d.stderr)
			}
			if a, ok := strings.CutPrefix(line, "cardserved: tcp ingest on "); ok {
				d.tcpAddr = a
			}
			if a, ok := strings.CutPrefix(line, "cardserved: listening on "); ok {
				d.base = "http://" + strings.Fields(a)[0]
			}
		case <-deadline:
			d.kill()
			return nil, 0, fmt.Errorf("cardserved did not start within 60s\n%s", d.stderr)
		}
	}
	d.ctl = newHTTPClient()
	for {
		if resp, err := d.ctl.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return d, d.ready.Sub(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("cardserved exited before healthy: %v\n%s", d.waitErr, d.stderr)
		case <-deadline:
			d.kill()
			return nil, 0, errors.New("cardserved never became healthy")
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// nextTick returns the first tick of a period-long ticker at or after t.
// The daemon's rotation ticker starts with the server, just before it
// answers health checks, so its ticks fall a few milliseconds before
// ready + k·period.
func (d *daemon) nextTick(t time.Time, period time.Duration) time.Time {
	k := (t.Sub(d.ready) + period - 1) / period
	if k < 0 {
		k = 0
	}
	return d.ready.Add(k * period)
}

// aligned returns the first instant at or after t that lies half a period
// into one of the ticker's slots.
func (d *daemon) aligned(t time.Time, period time.Duration) time.Time {
	return d.nextTick(t.Add(-period/2), period).Add(period / 2)
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	if d.ctl != nil {
		d.ctl.CloseIdleConnections()
	}
}

// alive reports an error if the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("cardserved died: %v\n%s", d.waitErr, d.stderr)
	default:
		return nil
	}
}

// procCPU returns the process's CPU time: the sum over its threads of the
// first field of /proc/<pid>/task/<tid>/schedstat, the thread's time on a
// CPU in nanoseconds. That is the utime+stime of /proc/<pid>/stat at
// nanosecond instead of 10 ms resolution: a second of the daemon under
// ingest_bulk's load spans about 30 of those ticks, so a per-second median
// read off them moved in steps of a thirtieth. The daemon's threads live as
// long as it does (it locks none to a goroutine), so no thread's time drops
// out of the sum.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	if total == 0 {
		return 0, fmt.Errorf("%s: schedstat reports no CPU time (scheduler statistics off?)", dir)
	}
	return total, nil
}

// procRSS returns the process's VmRSS in bytes.
func procRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// usage samples a process over a window: RSS at 10 Hz, and its CPU time
// with the count of edges acked so far once a second, so per-edge CPU can
// be taken second by second. The host this runs on is shared: a
// neighbour's burst can slow a whole second by half or more, and a median
// over the window's seconds shrugs off the one or two it catches where a
// whole-window average does not.
type usage struct {
	pid    int
	acked  func() int64
	rss    []float64
	slices []slice
	err    error
	stop   chan struct{}
	done   chan struct{}
}

// slice is one second of the window.
type slice struct {
	secs  float64
	cpu   time.Duration
	edges int64
}

func startUsage(pid int, acked func() int64) (*usage, error) {
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	u := &usage{pid: pid, acked: acked, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		last, lastCPU, lastEdges := time.Now(), cpu0, acked()
		mark := func() {
			now := time.Now()
			c, err := procCPU(pid)
			if err != nil {
				u.err = err
				return
			}
			e := acked()
			u.slices = append(u.slices, slice{secs: now.Sub(last).Seconds(), cpu: c - lastCPU, edges: e - lastEdges})
			last, lastCPU, lastEdges = now, c, e
		}
		for tick := 1; ; tick++ {
			select {
			case <-u.stop:
				mark()
				return
			case <-t.C:
			}
			if r, err := procRSS(pid); err == nil {
				u.rss = append(u.rss, r)
			} else {
				u.err = err
			}
			if tick%10 == 0 {
				mark()
			}
		}
	}()
	return u, nil
}

// end stops sampling.
func (u *usage) end() error {
	close(u.stop)
	<-u.done
	return u.err
}

// total is the whole window: CPU time, acked edges and seconds.
func (u *usage) total() slice {
	var t slice
	for _, s := range u.slices {
		t.secs += s.secs
		t.cpu += s.cpu
		t.edges += s.edges
	}
	return t
}

// perSecond returns the median over the window's whole seconds of f, or f
// of the whole window when it spans fewer than three (a smoke run). The
// partial last second is left out.
func (u *usage) perSecond(f func(slice) float64) float64 {
	var v []float64
	for _, s := range u.slices {
		if s.secs > 0.9 && s.edges > 0 {
			v = append(v, f(s))
		}
	}
	if len(v) < 3 {
		return f(u.total())
	}
	return median(v)
}

// tailBuffer keeps the last max bytes written to it (the daemon's stderr,
// for error reports).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// scrape is one parsed /metrics exposition: series key (name plus braced
// labels, exactly as exposed) to value.
type scrape struct {
	at time.Time
	v  map[string]float64
}

func (d *daemon) scrape() (scrape, error) {
	resp, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	s := scrape{at: time.Now(), v: make(map[string]float64)}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s.v[line[:i]] = v
		}
	}
	return s, sc.Err()
}

// delta is the change of one series between two scrapes.
func delta(a, b scrape, key string) float64 { return b.v[key] - a.v[key] }

// histMean is a histogram series' mean observation between two scrapes, or
// 0 when nothing was observed.
func histMean(a, b scrape, name, labels string) float64 {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	n := delta(a, b, name+"_count"+labels)
	if n == 0 {
		return 0
	}
	return delta(a, b, name+"_sum"+labels) / n
}
