// Command servebench is the repository's benchmark: it builds cmd/cardserved
// from the tree under test, runs the real daemon as a child process, and
// drives it from an in-process load generator over four seeded workloads,
// reporting end-to-end metrics (throughput, latency quantiles timed from
// each operation's due time, daemon CPU per edge, RSS, per-user accuracy,
// set-up time) and, with tracing, per-layer metrics from /metrics scrapes
// and an in-process replay of the same input through each layer's public
// call.
//
// Usage (from the repository root, or from cmd/servebench):
//
//	bash cmd/servebench/run.sh -workload all -seed 1 [-trace 0|1|DIR] [-json FILE]
//	go -C cmd/servebench run . -workload ingest_bulk -seed 1
//
// Every metric prints as "workload metric value unit n=<samples>"; after
// each workload one JSON line follows with the keys correct, attempted,
// failed and metrics (the bounded end-to-end metrics, or with tracing the
// per-layer ones). A failed correctness gate, an invalid load generator,
// or a quantile below its sample floor exits nonzero. See README.md for
// the workloads, the metric tables and how to compare two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The generator's live heap is a few MB, so at the default GOGC its own
	// collections would run every few thousand requests, inside the
	// sub-millisecond latencies it times.
	debug.SetGCPercent(400)
	os.Exit(servebench(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is the length of every workload's timed window, and
// BENCHMARK.json's run_seconds. The workloads are laid out for it: each
// window holds whole epochs, and durable_restart's checkpoints land three
// to a window.
const runSeconds = 15

// Validity limits on the load generator itself: above them the generator,
// not the daemon, shapes the numbers, and the run is refused.
const (
	maxLoadgenCores  = 0.5   // share of a CPU the benchmark process may use over the window
	maxLoadgenLagP99 = 250.0 // ms an open-loop send may run behind its due time
)

// endToEnd names the end-to-end metrics BENCHMARK.json bounds. The result
// line carries exactly these; the text lines and -json carry every metric
// a run computes, also ingest_bulk's ingest_edges_per_s and the latency
// quantiles of each class the workload measures. Those are not bounded:
// on a shared 2-vCPU host their spread from run to
// run (up to half their median, bimodal for serve_mixed's acks, and about
// a fifth for the saturating capacity jobs) is wider than any bound the
// benchmark may set.
var endToEnd = []string{"cpu_ns_per_edge", "rss_mean_mb", "user_rse", "setup_s"}

type options struct {
	workloads []*workload
	seed      uint64
	traceDir  string // "": untraced
	jsonOut   string
	root      string
	smoke     bool
}

// result is everything one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Gates     []string          `json:"gates,omitempty"`
}

func servebench(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	bin, err := buildDaemon(o.root, filepath.Join(o.root, ".bench_build", "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	results := map[string]*result{}
	code := 0
	for _, wl := range o.workloads {
		res, err := runWorkload(wl, o, bin, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: %s: %v\n", wl.name, err)
			return 1
		}
		results[wl.name] = res
		for _, g := range res.Gates {
			fmt.Fprintf(stderr, "servebench: %s: FAIL %s\n", wl.name, g)
		}
		if !res.Correct {
			code = 1
		}
		metrics := res.EndToEnd
		if o.traceDir != "" {
			metrics = res.PerLayer
		}
		names := endToEnd
		if o.traceDir != "" {
			names = nil
			for name := range metrics {
				names = append(names, name)
			}
		}
		out := map[string]any{}
		for _, name := range names {
			m := metrics[name]
			out[name] = map[string]any{"value": m.jsonValue(), "unit": m.Unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
		})
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{
			"seed": o.seed, "smoke": o.smoke,
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "workloads": results,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
	}
	return code
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "all, or a comma-separated list of: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = fs.Int("seconds", runSeconds, fmt.Sprintf("timed length of each workload's window: %d, the only length the workloads are laid out for", runSeconds))
		trace   = fs.String("trace", "0", "0: untraced; 1: traced, spans under .bench_build/trace; or a directory for the span files")
		jsonOut = fs.String("json", "", "also write every result to this file")
		smoke   = fs.Bool("smoke", false, "1 s workloads at toy sizes with sample floors off: checks the plumbing, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	// -seconds exists because the benchmark's command line carries
	// BENCHMARK.json's run_seconds; any other value is refused.
	if *seconds != runSeconds {
		return nil, fmt.Errorf("-seconds %d: the workloads are laid out for %d", *seconds, runSeconds)
	}
	o := &options{seed: *seed, jsonOut: *jsonOut, smoke: *smoke}
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			o.workloads = append(o.workloads, workloads...)
			continue
		}
		wl := findWorkload(n)
		if wl == nil {
			return nil, fmt.Errorf("unknown workload %q (want all or %s)", n, workloadNames())
		}
		o.workloads = append(o.workloads, wl)
	}
	var err error
	if o.root, err = findRoot(); err != nil {
		return nil, err
	}
	switch *trace {
	case "0", "":
	case "1":
		o.traceDir = filepath.Join(o.root, ".bench_build", "trace")
	default:
		o.traceDir = *trace
	}
	return o, nil
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}

// findRoot returns the repository root: the working directory or the
// nearest parent of it whose go.mod declares module repro.
func findRoot() (string, error) {
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(first) == "module repro" {
				return d, nil
			}
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", errors.New("no repository root (a go.mod declaring module repro) at or above the working directory")
		}
		d = parent
	}
}

// runWorkload runs wl untraced for the end-to-end metrics and, with
// tracing, again traced plus the in-process layer replay for the per-layer
// metrics.
func runWorkload(wl *workload, o *options, bin string, out io.Writer) (*result, error) {
	r, err := execute(wl, o, bin, nil)
	if err != nil {
		return nil, err
	}
	res := &result{EndToEnd: r.metrics, Gates: r.gates, Attempted: r.ops, Failed: r.failed}
	printMetrics(out, wl.name, r.metrics)
	if o.traceDir != "" {
		rt, err := execute(wl, o, bin, newTracer())
		if err != nil {
			return nil, err
		}
		if err := rt.tr.write(o.traceDir, wl.name); err != nil {
			return nil, err
		}
		dir := filepath.Join(o.root, ".bench_build", "servebench", wl.name+"-replay")
		reads := snapshotReads(rt.scrapes[len(rt.scrapes)-2])
		layers, err := layerReplay(wl, o.seed, dir, o.smoke, reads > 0)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		scraped(rt, layers)
		layers["server.snapshot_reads"] = metric{reads, "count", len(rt.scrapes)}
		derived(r, rt, layers, reads > 0)
		res.PerLayer = layers
		res.Gates = append(res.Gates, rt.gates...)
		res.Attempted += rt.ops
		res.Failed += rt.failed
		printMetrics(out, wl.name, layers)
	}
	res.Correct = len(res.Gates) == 0
	return res, nil
}

// execute performs one run of wl against a fresh daemon and derives its
// end-to-end metrics. Errors are failures to run at all; correctness
// failures land in the run's gates.
func execute(wl *workload, o *options, bin string, tr *tracer) (*run, error) {
	r := &run{wl: wl, seed: o.seed, smoke: o.smoke, bin: bin, tr: tr,
		dir: filepath.Join(o.root, ".bench_build", "servebench", wl.name)}
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
		os.RemoveAll(r.dir)
	}()
	if err := wl.run(r); err != nil {
		return nil, err
	}
	if err := r.d.alive(); err != nil {
		return nil, err
	}
	for _, err := range r.finish() {
		r.gate("%v", err)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.gate("%s is %v", name, m.Value)
		}
	}
	if o.smoke {
		return r, nil // toy sizes on a cold daemon: the plumbing, not the generator, is under test
	}
	if cores := r.loadCPU.Seconds() / r.use.total().secs; cores > maxLoadgenCores {
		r.gate("invalid run: the load generator used %.2f of a CPU (limit %.1f)", cores, maxLoadgenCores)
	}
	if v := r.lagP99(); v > maxLoadgenLagP99 {
		r.gate("invalid run: load generator lag p99 %.1f ms (limit %.0f)", v, maxLoadgenLagP99)
	}
	return r, nil
}

func (r *run) loadgenCPU() float64 { return nsPer(r.loadCPU, r.winEdges) }

func (r *run) lagP99() float64 {
	v, _ := quantile(r.lag, 0.99, 1)
	return v
}

// scraped adds the per-layer metrics read off the traced run's /metrics
// scrapes: rates, counts and the ack mean over the timed window, query
// handler means from the window's start to the last scrape, after the
// accuracy pass (some workloads issue their reads only there).
func scraped(rt *run, m map[string]metric) {
	s := rt.scrapes
	s0, end, read := s[0], s[len(s)-2], s[len(s)-1]
	win := end.at.Sub(s0.at).Seconds()
	set := func(name string, v float64, unit string, n int) { m[name] = metric{v, unit, n} }
	n := len(s)
	set("wal.fsyncs_per_s", delta(s0, end, "cardserved_wal_fsync_seconds_count")/win, "1/s", n)
	batches := delta(s0, end, "cardserved_batches_total")
	set("server.coalesce_ratio", ratio(delta(s0, end, "cardserved_coalesced_batches_total"), batches), "ratio", int(batches))
	set("server.tcp_stalls", delta(s0, end, "cardserved_tcp_backpressure_stalls_total"), "count", n)
	var depth []float64
	for _, x := range s[:n-1] {
		depth = append(depth, x.v["cardserved_queue_depth"])
	}
	set("server.queue_depth_mean", mean(depth), "count", len(depth))
	ack := histMean(s0, end, "cardserved_tcp_ack_seconds", "")
	acks := delta(s0, end, "cardserved_tcp_ack_seconds_count")
	if acks == 0 {
		ack = histMean(s0, end, "cardserved_http_request_seconds", `handler="/ingest"`)
		acks = delta(s0, end, `cardserved_http_request_seconds_count{handler="/ingest"}`)
	}
	set("server.ack_mean_ms", 1e3*ack, "ms", int(acks))
	set("server.estimate_handler_mean_us", 1e6*histMean(s0, read, "cardserved_http_request_seconds", `handler="/estimate"`),
		"us", int(delta(s0, read, `cardserved_http_request_seconds_count{handler="/estimate"}`)))
	set("server.topk_compute_mean_ms", 1e3*histMean(s0, read, "cardserved_analytics_seconds", `query="topk"`),
		"ms", int(delta(s0, read, `cardserved_analytics_seconds_count{query="topk"}`)))
	set("server.rotations", delta(s0, end, "cardserved_rotations_total"), "count", n)
	set("server.checkpoints", delta(s0, end, "cardserved_checkpoints_total"), "count", n)
	hits := delta(s0, read, "cardserved_fold_cache_hits_total")
	computes := delta(s0, read, "cardserved_fold_cache_computes_total")
	set("server.fold_hit_ratio", ratio(hits, hits+computes), "ratio", int(hits+computes))
}

// snapshotReads counts the requests the daemon had served by s that take a
// snapshot of the stack: every timed handler but /ingest (the queries) and
// every checkpoint. The first of them arms writer-side snapshot
// publication for good; from then on every absorb publishes, and the next
// write to a published array copies it.
func snapshotReads(s scrape) float64 {
	n := s.v["cardserved_checkpoints_total"]
	for k, v := range s.v {
		if h, ok := strings.CutPrefix(k, "cardserved_http_request_seconds_count{"); ok && h != `handler="/ingest"}` {
			n += v
		}
	}
	return n
}

// derived adds the per-layer metrics computed from other metrics: the
// unattributed remainder of the daemon's CPU per edge (counting the absorb
// leg the daemon ran, armed or not), the load generator's validity guards,
// and the tracing overhead.
func derived(r, rt *run, m map[string]metric, armed bool) {
	absorb := m["streamcard.absorb_ns_per_edge"].Value
	if armed {
		absorb = m["streamcard.absorb_armed_ns_per_edge"].Value
	}
	attributed := m["stream.decode_ns_per_edge"].Value + m["stream.partition_ns_per_edge"].Value +
		m["wal.append_ns_per_edge"].Value + absorb
	cpu := r.metrics["cpu_ns_per_edge"]
	m["server.glue_ns_per_edge"] = metric{cpu.Value - attributed, "ns", cpu.N}
	m["loadgen.cpu_ns_per_edge"] = metric{r.loadgenCPU(), "ns", r.winEdges}
	m["loadgen.lag_p99_ms"] = metric{r.lagP99(), "ms", len(r.lag)}
	base, traced := r.metrics["ack_p50_ms"], rt.metrics["ack_p50_ms"]
	m["trace_overhead_pct"] = metric{100 * (traced.Value - base.Value) / base.Value, "%", traced.N}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(out io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %.6g %s n=%d\n", workload, n, m[n].Value, m[n].Unit, m[n].N)
	}
}
