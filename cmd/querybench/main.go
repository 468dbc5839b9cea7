// Command querybench measures what the snapshot-isolated read path buys:
// ingest throughput of the serving stack — Sharded(Windowed(FreeRS)), the
// same shape cardserved runs — with zero versus N concurrent query
// goroutines, plus query latency percentiles for the query mix a monitor
// actually issues (point estimates, top-k, anytime and merged totals, user
// counts). Because the write path publishes each shard's copy-on-write
// snapshot as it releases the shard lock, queries assemble views from
// atomic loads alone: ingest throughput under query load should sit within
// a few percent of the query-free baseline AND query latency should stay
// in the microseconds even while 65k-edge batches are absorbing; the JSON
// this tool emits (BENCH_query.json, uploaded by CI next to
// BENCH_core.json) tracks both per commit. Percentiles are only reported
// for kinds with at least minSamples observations (too_few_samples flags
// the rest) so a 2-sample p99 can never gate anything.
//
// A separate wire phase compares the two ingest protocols end to end —
// decode a pre-encoded request body and absorb the batch — for the text
// line protocol versus the CWB1 binary frame, reporting edges/sec each and
// the binary/text speedup.
//
// A transport phase compares the two ways CWB1 frames reach a real server:
// sequential keep-alive HTTP POSTs (one round trip per frame — the
// request/response transport cardload's -proto binary drives) versus the
// CWT1 persistent TCP transport (one long-lived connection, a window of
// pipelined frames, out-of-band per-frame acks). Both legs carry identical
// frame payloads into identical server.New stacks at -scaling-shards, so
// the ratio isolates what pipelining saves in per-request transport
// overhead; -min-tcp-speedup gates it (skipped with a logged reason on
// single-CPU hosts, where client and server time-slice one core and
// overlap is impossible by construction).
//
// A WAL phase measures what durability costs the same absorb loop: no WAL,
// the interval (group-commit) fsync policy, and the always policy, each
// against a real log on disk, with -max-wal-overhead-pct gating the
// interval leg's overhead over the no-WAL baseline.
//
// It also asserts the publication cost model: taking a snapshot of a
// loaded stack must allocate a small, size-independent number of bytes —
// never a full-array copy. The assertion compares publication cost at the
// configured sketch size and at 4x that size and fails the run (exit 1) if
// either is large or they scale with M.
//
// An analytics phase measures the shard-concurrent analytics read path at
// scale (top-k, sorted user enumeration, user counts, merged totals at
// ≥ 100k users across several live generations): each row runs on a
// freshly dirtied view so every window fold is cold, once through the
// one-goroutine serial reference and once through the parallel fan-out,
// plus a cached row that re-queries an unchanged view and asserts zero
// re-folds. Every row collects enough samples to clear the minSamples
// floor, so the analytics percentiles are real and gateable.
//
// CI gates on the serving targets with -max-estimate-p50-us,
// -max-total-p50-us, -min-wire-speedup, -min-tcp-speedup,
// -max-topk-p50-us, and -min-analytics-scaling (0 disables a gate).
//
//	go run ./cmd/querybench -edges 4000000 -queriers 8 -out BENCH_query.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	streamcard "repro"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// LatencySummary is the per-query-kind latency section of the JSON. Kinds
// that collected fewer than minSamples observations report only the count,
// with TooFewSamples set and the percentiles zeroed: a p99 over two
// samples is noise, and gating on it would pass and fail runs at random.
type LatencySummary struct {
	Count         int     `json:"count"`
	P50Us         float64 `json:"p50_us,omitempty"`
	P95Us         float64 `json:"p95_us,omitempty"`
	P99Us         float64 `json:"p99_us,omitempty"`
	TooFewSamples bool    `json:"too_few_samples,omitempty"`
}

// Result is the JSON document querybench emits.
type Result struct {
	PhaseSeconds  float64 `json:"phase_seconds"`
	Edges         int     `json:"edges"`
	MemoryBits    int     `json:"memory_bits"`
	Shards        int     `json:"shards"`
	Generations   int     `json:"generations"`
	BatchSize     int     `json:"batch_size"`
	Ingesters     int     `json:"ingesters"`
	Queriers      int     `json:"queriers"`
	TargetQPS     int     `json:"target_qps"`
	RotateEveryMs int     `json:"rotate_every_ms"`
	// The host's parallelism, recorded so a stored BENCH file is
	// interpretable: every throughput and scaling number below is a
	// function of how many cores the run actually had.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	BaselineEdgesPerSec  float64 `json:"baseline_edges_per_sec"`
	ContendedEdgesPerSec float64 `json:"contended_edges_per_sec"`
	IngestDropPct        float64 `json:"ingest_drop_pct"`

	QueriesExecuted int                       `json:"queries_executed"`
	QueryLatency    map[string]LatencySummary `json:"query_latency"`

	// Wire-to-sketch throughput: request body decoded (text line protocol
	// vs CWB1 binary frame) and the batch absorbed, per protocol, on a
	// fresh stack each — the server-side cost of an ingest request minus
	// HTTP itself.
	WireTextEdgesPerSec   float64 `json:"wire_text_edges_per_sec"`
	WireBinaryEdgesPerSec float64 `json:"wire_binary_edges_per_sec"`
	WireSpeedup           float64 `json:"wire_speedup"`

	// Transport comparison against a real server at TransportShards:
	// identical CWB1 frame payloads delivered as sequential keep-alive HTTP
	// POSTs (an ack round trip per frame) versus the CWT1 persistent TCP
	// transport (one connection, TransportWindow pipelined frames in
	// flight, per-frame acks read out of band). Edges/sec counts acked
	// frames end to end, so the ratio is the per-request transport overhead
	// pipelining removes. -min-tcp-speedup gates TCPSpeedupX; skipped with
	// the logged reason in TCPGateSkipped on single-CPU hosts.
	TransportShards          int     `json:"transport_shards"`
	TransportFrameEdges      int     `json:"transport_frame_edges"`
	TransportWindow          int     `json:"transport_window"`
	TransportHTTPEdgesPerSec float64 `json:"transport_http_edges_per_sec"`
	TransportTCPEdgesPerSec  float64 `json:"transport_tcp_edges_per_sec"`
	TCPSpeedupX              float64 `json:"tcp_speedup_x"`
	TCPGateSkipped           string  `json:"tcp_gate_skipped,omitempty"`

	// Ingest scaling: the same decode→partition→absorb pipeline executed by
	// ONE goroutine (partition a batch, absorb every shard's sub-batch
	// sequentially — the executors=1 reference) versus by one executor
	// goroutine per shard fed from per-shard queues (the cardserved
	// structure). The ratio is what shard-parallel ingest buys on this
	// host; on a single-core runner it is ≈1 by construction, which is why
	// the gate skips below 4 CPUs (see IngestScalingGateSkipped).
	IngestScalingShards       int     `json:"ingest_scaling_shards"`
	IngestSerialEdgesPerSec   float64 `json:"ingest_serial_edges_per_sec"`
	IngestParallelEdgesPerSec float64 `json:"ingest_parallel_edges_per_sec"`
	IngestScalingX            float64 `json:"ingest_scaling_x"`
	// Non-empty when -min-ingest-scaling was requested but not enforced,
	// with the reason (e.g. too few CPUs to certify parallel speedup).
	IngestScalingGateSkipped string `json:"ingest_scaling_gate_skipped,omitempty"`

	// Analytics read path: shard-concurrent top-k / user enumeration /
	// counts versus the one-goroutine serial reference, measured on a
	// scaling-shards-wide stack holding AnalyticsUsers users across the
	// live generations. Every leg runs on a freshly dirtied view (a write
	// lands in every shard first, so all window-fold caches are cold and
	// both legs do identical work); the topk_cached row re-queries an
	// unchanged view, with the phase asserting via fold counters that it
	// re-folded nothing. AnalyticsTopkScalingX is serial p50 over parallel
	// p50; like ingest scaling, the gate skips below 4 CPUs.
	AnalyticsUsers        int                       `json:"analytics_users"`
	AnalyticsShards       int                       `json:"analytics_shards"`
	AnalyticsLatency      map[string]LatencySummary `json:"analytics_latency"`
	AnalyticsTopkScalingX float64                   `json:"analytics_topk_scaling_x"`
	AnalyticsFoldComputes uint64                    `json:"analytics_fold_computes"`
	AnalyticsFoldHits     uint64                    `json:"analytics_fold_hits"`
	AnalyticsGateSkipped  string                    `json:"analytics_gate_skipped,omitempty"`

	// WAL overhead: the per-request ingest cycle (decode a text body, WAL
	// append, group-commit barrier, absorb — the way cardserved's submit
	// path runs it) against a real log on disk, for the no-WAL baseline,
	// the interval (group-commit) policy, and the always (fsync-per-batch)
	// policy. Overhead percentages are relative to the off leg; CI gates
	// the interval one, the durability default.
	WALOffEdgesPerSec      float64 `json:"wal_off_edges_per_sec"`
	WALIntervalEdgesPerSec float64 `json:"wal_interval_edges_per_sec"`
	WALAlwaysEdgesPerSec   float64 `json:"wal_always_edges_per_sec"`
	WALIntervalOverheadPct float64 `json:"wal_interval_overhead_pct"`
	WALAlwaysOverheadPct   float64 `json:"wal_always_overhead_pct"`

	// Snapshot publication cost: bytes allocated by one Snapshot call on a
	// loaded stack after a write made the published view stale, at the
	// configured sketch size and at 4x it. O1OK asserts both are small and
	// size-independent (the copy-on-write contract: publication never
	// copies the arrays; the writer pays its lazy copy outside the call).
	SnapshotPublishBytes   float64 `json:"snapshot_publish_bytes"`
	SnapshotPublishBytes4x float64 `json:"snapshot_publish_bytes_4x"`
	SnapshotPublishO1OK    bool    `json:"snapshot_publish_o1_ok"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "querybench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("querybench", flag.ContinueOnError)
	var (
		seconds   = fs.Float64("seconds", 3, "measured duration of each phase")
		edges     = fs.Int("edges", 4_000_000, "edges pre-generated and cycled through the window (the pool, not the total ingested)")
		mbits     = fs.Int("mbits", 1<<22, "total sketch memory in bits (split across shards, spent per generation)")
		shards    = fs.Int("shards", 4, "shard count")
		gens      = fs.Int("gens", 4, "window generations k")
		batch     = fs.Int("batch", 65536, "ObserveBatch chunk size")
		users     = fs.Int("users", 50_000, "distinct users in the workload")
		ingesters = fs.Int("ingesters", 2, "concurrent ingest goroutines")
		queriers  = fs.Int("queriers", 8, "concurrent query goroutines in the contended phase")
		qps       = fs.Int("qps", 2000, "total target point-estimate rate across the query fleet (0 = unthrottled)")
		rotatems  = fs.Int("rotate", 50, "rotate every this many milliseconds during both phases (0 = never)")
		out       = fs.String("out", "BENCH_query.json", "output file (- = stdout)")

		scalingShards = fs.Int("scaling-shards", 8, "shard count of the ingest-scaling phase (one executor per shard in the parallel leg)")

		analyticsUsers = fs.Int("analytics-users", 120_000, "distinct users in the analytics read-path phase")

		maxEstP50           = fs.Float64("max-estimate-p50-us", 0, "fail if estimate p50 exceeds this many microseconds (0 = no gate)")
		maxTotalP50         = fs.Float64("max-total-p50-us", 0, "fail if total p50 exceeds this many microseconds (0 = no gate)")
		minSpeedup          = fs.Float64("min-wire-speedup", 0, "fail if binary/text wire-to-sketch speedup falls below this (0 = no gate)")
		minTCPSpeedup       = fs.Float64("min-tcp-speedup", 0, "fail if the pipelined-TCP/HTTP-binary transport speedup falls below this (0 = no gate; skipped with a logged reason on hosts with fewer than 2 CPUs)")
		minScaling          = fs.Float64("min-ingest-scaling", 0, "fail if shard-parallel/serial ingest throughput falls below this (0 = no gate; skipped with a logged reason on hosts with fewer than 4 CPUs)")
		maxWALOver          = fs.Float64("max-wal-overhead-pct", 0, "fail if the interval-policy WAL ingest overhead exceeds this percent of the no-WAL baseline (0 = no gate)")
		maxTopkP50          = fs.Float64("max-topk-p50-us", 0, "fail if the parallel analytics top-k p50 exceeds this many microseconds (0 = no gate)")
		minAnalyticsScaling = fs.Float64("min-analytics-scaling", 0, "fail if the parallel/serial analytics top-k speedup falls below this (0 = no gate; skipped with a logged reason on hosts with fewer than 4 CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *edges <= 0 || *shards <= 0 || *gens < 2 || *batch <= 0 || *users <= 0 || *ingesters <= 0 || *queriers < 0 {
		return fmt.Errorf("need seconds, edges, shards, batch, users, ingesters > 0 and gens >= 2")
	}

	batches := makeBatches(*edges, *batch, *users, 1)

	// Warm up code paths and fault in the edge slices before timing.
	warmup(buildStack(*mbits, *shards, *gens), batches)

	res := Result{
		PhaseSeconds: *seconds,
		Edges:        *edges, MemoryBits: *mbits, Shards: *shards, Generations: *gens,
		BatchSize: *batch, Ingesters: *ingesters, Queriers: *queriers,
		TargetQPS: *qps, RotateEveryMs: *rotatems,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		IngestScalingShards: *scalingShards,
	}

	cfg := phaseConfig{
		mbits: *mbits, shards: *shards, gens: *gens, users: *users,
		ingesters: *ingesters, qps: *qps, rotatems: *rotatems,
		seconds: *seconds,
	}
	res.BaselineEdgesPerSec, _, _ = runPhase(cfg, batches, 0)
	var lat map[string][]float64
	var queries int
	res.ContendedEdgesPerSec, lat, queries = runPhase(cfg, batches, *queriers)

	res.IngestDropPct = (1 - res.ContendedEdgesPerSec/res.BaselineEdgesPerSec) * 100
	res.QueriesExecuted = queries
	res.QueryLatency = summarize(lat)

	var err error
	res.WireTextEdgesPerSec, res.WireBinaryEdgesPerSec, err = wirePhase(cfg, batches)
	if err != nil {
		return err
	}
	res.WireSpeedup = res.WireBinaryEdgesPerSec / res.WireTextEdgesPerSec

	res.TransportShards = *scalingShards
	res.TransportFrameEdges = transportFrameEdges
	res.TransportWindow = transportWindow
	res.TransportHTTPEdgesPerSec, res.TransportTCPEdgesPerSec, err =
		transportPhase(cfg, batches, *scalingShards)
	if err != nil {
		return err
	}
	res.TCPSpeedupX = res.TransportTCPEdgesPerSec / res.TransportHTTPEdgesPerSec
	if *minTCPSpeedup > 0 && res.NumCPU < 2 {
		// On one core the client, the HTTP server, and the shard executors
		// time-slice the same CPU: pipelined frames cannot overlap anything,
		// so the ratio certifies scheduling luck, not the transport. Recorded
		// in the JSON like the other skips so a stored BENCH file says why
		// the gate did not run.
		res.TCPGateSkipped = fmt.Sprintf(
			"host has %d CPUs; certifying pipelined-transport speedup needs at least 2", res.NumCPU)
	}

	res.IngestSerialEdgesPerSec, res.IngestParallelEdgesPerSec =
		ingestScalingPhase(cfg, batches, *scalingShards)
	res.IngestScalingX = res.IngestParallelEdgesPerSec / res.IngestSerialEdgesPerSec
	if *minScaling > 0 && res.NumCPU < 4 {
		// One or two cores cannot certify parallel speedup: the executors
		// time-slice the same cores the serial leg had, so the ratio is ≈1
		// by construction, not by regression. Record the skip in the JSON so
		// a stored BENCH file says why the gate did not run.
		res.IngestScalingGateSkipped = fmt.Sprintf(
			"host has %d CPUs; certifying shard-parallel scaling needs at least 4", res.NumCPU)
	}

	alat, fst, err := analyticsPhase(*mbits, *scalingShards, *gens, *analyticsUsers)
	if err != nil {
		return err
	}
	res.AnalyticsUsers = *analyticsUsers
	res.AnalyticsShards = *scalingShards
	res.AnalyticsLatency = summarize(alat)
	if s, p := res.AnalyticsLatency["topk_serial"], res.AnalyticsLatency["topk"]; p.P50Us > 0 {
		res.AnalyticsTopkScalingX = s.P50Us / p.P50Us
	}
	res.AnalyticsFoldComputes = fst.Computes()
	res.AnalyticsFoldHits = fst.Hits()
	if *minAnalyticsScaling > 0 && res.NumCPU < 4 {
		// Same reasoning as the ingest-scaling skip: with the fan-out
		// time-slicing the serial leg's cores, the ratio is ≈1 by
		// construction and certifies nothing.
		res.AnalyticsGateSkipped = fmt.Sprintf(
			"host has %d CPUs; certifying shard-parallel analytics scaling needs at least 4", res.NumCPU)
	}

	res.WALOffEdgesPerSec, res.WALIntervalEdgesPerSec, res.WALAlwaysEdgesPerSec, err =
		walPhase(cfg, batches)
	if err != nil {
		return err
	}
	res.WALIntervalOverheadPct = (1 - res.WALIntervalEdgesPerSec/res.WALOffEdgesPerSec) * 100
	res.WALAlwaysOverheadPct = (1 - res.WALAlwaysEdgesPerSec/res.WALOffEdgesPerSec) * 100

	// The O(1)-publication assertion, at M and 4M.
	small := snapshotPublishBytes(*mbits, *shards, *gens)
	large := snapshotPublishBytes(*mbits*4, *shards, *gens)
	res.SnapshotPublishBytes = small
	res.SnapshotPublishBytes4x = large
	// "Small": far below one generation's array (mbits/shards/8 bytes).
	// "Size-independent": 4x the sketch must not even double the cost.
	arrayBytes := float64(*mbits / *shards / 8)
	res.SnapshotPublishO1OK = small < 64<<10 && small < arrayBytes/4 &&
		large < 2*small+4096

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		if _, err := stdout.Write(doc); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}

	fmt.Fprintf(stdout,
		"querybench: ingest %.1fM edges/s alone, %.1fM with %d queriers (%.1f%% drop), %d queries, estimate p50 %.0fus p99 %.0fus, total p50 %.0fus\n",
		res.BaselineEdgesPerSec/1e6, res.ContendedEdgesPerSec/1e6, *queriers,
		res.IngestDropPct, queries, res.QueryLatency["estimate"].P50Us,
		res.QueryLatency["estimate"].P99Us, res.QueryLatency["total"].P50Us)
	fmt.Fprintf(stdout, "querybench: wire-to-sketch %.1fM edges/s text, %.1fM binary (%.1fx)\n",
		res.WireTextEdgesPerSec/1e6, res.WireBinaryEdgesPerSec/1e6, res.WireSpeedup)
	fmt.Fprintf(stdout, "querybench: transport at %d shards: %.1fM edges/s http binary, %.1fM tcp pipelined (%.2fx, window %d, %d-edge frames)\n",
		*scalingShards, res.TransportHTTPEdgesPerSec/1e6, res.TransportTCPEdgesPerSec/1e6,
		res.TCPSpeedupX, transportWindow, transportFrameEdges)
	fmt.Fprintf(stdout, "querybench: ingest scaling at %d shards: %.1fM edges/s serial, %.1fM shard-parallel (%.2fx on %d CPUs)\n",
		*scalingShards, res.IngestSerialEdgesPerSec/1e6, res.IngestParallelEdgesPerSec/1e6,
		res.IngestScalingX, res.NumCPU)
	fmt.Fprintf(stdout, "querybench: analytics at %d shards / %d users: topk p50 %.0fus serial, %.0fus parallel (%.2fx), cached %.0fus; folds %d computed %d hit\n",
		*scalingShards, *analyticsUsers,
		res.AnalyticsLatency["topk_serial"].P50Us, res.AnalyticsLatency["topk"].P50Us,
		res.AnalyticsTopkScalingX, res.AnalyticsLatency["topk_cached"].P50Us,
		res.AnalyticsFoldComputes, res.AnalyticsFoldHits)
	fmt.Fprintf(stdout, "querybench: WAL ingest %.1fM edges/s off, %.1fM interval (+%.1f%%), %.1fM always (+%.1f%%)\n",
		res.WALOffEdgesPerSec/1e6,
		res.WALIntervalEdgesPerSec/1e6, res.WALIntervalOverheadPct,
		res.WALAlwaysEdgesPerSec/1e6, res.WALAlwaysOverheadPct)
	fmt.Fprintf(stdout, "querybench: snapshot publication %.0f B at M, %.0f B at 4M (o1_ok=%v)\n",
		small, large, res.SnapshotPublishO1OK)
	if *out != "-" {
		fmt.Fprintf(stdout, "querybench: wrote %s\n", *out)
	}
	if !res.SnapshotPublishO1OK {
		return fmt.Errorf("snapshot publication is not O(1): %.0f bytes at M=%d, %.0f at 4x (one shard generation's array is %.0f bytes)",
			small, *mbits, large, arrayBytes)
	}

	// The serving-target gates. A kind with too few samples cannot pass its
	// gate — refusing to certify a latency from a 2-sample percentile is
	// the point of the minSamples floor.
	var violations []string
	gateP50 := func(kind string, limit float64) {
		if limit <= 0 {
			return
		}
		ls, ok := res.QueryLatency[kind]
		switch {
		case !ok || ls.TooFewSamples:
			violations = append(violations,
				fmt.Sprintf("%s: %d samples is below the %d-sample floor, cannot certify p50", kind, ls.Count, minSamples))
		case ls.P50Us > limit:
			violations = append(violations, fmt.Sprintf("%s p50 %.0fus > limit %.0fus", kind, ls.P50Us, limit))
		}
	}
	gateP50("estimate", *maxEstP50)
	gateP50("total", *maxTotalP50)
	if *minSpeedup > 0 && res.WireSpeedup < *minSpeedup {
		violations = append(violations,
			fmt.Sprintf("wire speedup %.2fx < limit %.2fx", res.WireSpeedup, *minSpeedup))
	}
	if *minTCPSpeedup > 0 {
		if res.TCPGateSkipped != "" {
			fmt.Fprintf(stdout, "querybench: tcp-speedup gate skipped: %s\n", res.TCPGateSkipped)
		} else if res.TCPSpeedupX < *minTCPSpeedup {
			violations = append(violations,
				fmt.Sprintf("tcp transport speedup %.2fx < limit %.2fx at %d shards on %d CPUs",
					res.TCPSpeedupX, *minTCPSpeedup, *scalingShards, res.NumCPU))
		}
	}
	if *minScaling > 0 {
		if res.IngestScalingGateSkipped != "" {
			fmt.Fprintf(stdout, "querybench: ingest-scaling gate skipped: %s\n", res.IngestScalingGateSkipped)
		} else if res.IngestScalingX < *minScaling {
			violations = append(violations,
				fmt.Sprintf("ingest scaling %.2fx < limit %.2fx at %d shards on %d CPUs",
					res.IngestScalingX, *minScaling, *scalingShards, res.NumCPU))
		}
	}
	gateAnalyticsP50 := func(kind string, limit float64) {
		if limit <= 0 {
			return
		}
		ls, ok := res.AnalyticsLatency[kind]
		switch {
		case !ok || ls.TooFewSamples:
			violations = append(violations,
				fmt.Sprintf("analytics %s: %d samples is below the %d-sample floor, cannot certify p50", kind, ls.Count, minSamples))
		case ls.P50Us > limit:
			violations = append(violations, fmt.Sprintf("analytics %s p50 %.0fus > limit %.0fus", kind, ls.P50Us, limit))
		}
	}
	gateAnalyticsP50("topk", *maxTopkP50)
	if *minAnalyticsScaling > 0 {
		if res.AnalyticsGateSkipped != "" {
			fmt.Fprintf(stdout, "querybench: analytics-scaling gate skipped: %s\n", res.AnalyticsGateSkipped)
		} else if res.AnalyticsTopkScalingX < *minAnalyticsScaling {
			violations = append(violations,
				fmt.Sprintf("analytics top-k scaling %.2fx < limit %.2fx at %d shards on %d CPUs",
					res.AnalyticsTopkScalingX, *minAnalyticsScaling, *scalingShards, res.NumCPU))
		}
	}
	if *maxWALOver > 0 && res.WALIntervalOverheadPct > *maxWALOver {
		violations = append(violations,
			fmt.Sprintf("interval-policy WAL overhead %.1f%% > limit %.1f%%",
				res.WALIntervalOverheadPct, *maxWALOver))
	}
	if len(violations) > 0 {
		return fmt.Errorf("gates failed: %s", strings.Join(violations, "; "))
	}
	return nil
}

// wireSecondsCap bounds each protocol leg of the wire phase; the ratio
// stabilizes well before the latency phases' full duration.
const wireSecondsCap = 1.5

// wirePhase measures wire-to-sketch ingest for both protocols: each leg
// pre-encodes a slice of the batch pool as request bodies, then decodes
// and absorbs them in a loop against a fresh stack — the work an ingest
// request costs the server after HTTP framing. Text pays a per-edge
// decimal parse and an edges-slice append; CWB1 validates a CRC and hands
// the payload bytes straight to ObserveBatch (zero-copy decode).
func wirePhase(cfg phaseConfig, batches [][]streamcard.Edge) (textEPS, binEPS float64, err error) {
	if len(batches) > 16 {
		batches = batches[:16] // bound the encoded-body memory
	}
	seconds := cfg.seconds
	if seconds > wireSecondsCap {
		seconds = wireSecondsCap
	}
	textBodies := make([][]byte, len(batches))
	binBodies := make([][]byte, len(batches))
	for i, b := range batches {
		var buf bytes.Buffer
		if err := stream.WriteText(&buf, b); err != nil {
			return 0, 0, err
		}
		textBodies[i] = buf.Bytes()
		binBodies[i] = stream.AppendWire(nil, b)
	}
	textEPS, err = wireToSketch(cfg, seconds, textBodies, func(body []byte) ([]streamcard.Edge, error) {
		return stream.ParseTextBatch(bytes.NewReader(body))
	})
	if err != nil {
		return 0, 0, err
	}
	binEPS, err = wireToSketch(cfg, seconds, binBodies, stream.DecodeWire)
	return textEPS, binEPS, err
}

func wireToSketch(cfg phaseConfig, seconds float64, bodies [][]byte, decode func([]byte) ([]streamcard.Edge, error)) (float64, error) {
	s := buildStack(cfg.mbits, cfg.shards, cfg.gens)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var edges int64
	for i := 0; time.Now().Before(deadline); i++ {
		b, err := decode(bodies[i%len(bodies)])
		if err != nil {
			return 0, err
		}
		s.ObserveBatch(b)
		edges += int64(len(b))
	}
	return float64(edges) / time.Since(start).Seconds(), nil
}

// Transport phase sizing: each leg-rep is time-bounded like the wire
// phase, frames are small enough that per-request overhead — the thing the
// phase measures — is a visible fraction of each request, and the TCP
// window matches cardload's default pipelining depth. transportReps
// interleaved repetitions run and the best rep per leg is kept, the same
// noise discipline as walPhase.
const (
	transportSecondsCap = 1.0
	transportReps       = 3
	transportFrameEdges = 2048
	transportWindow     = 64
)

// transportPhase measures how CWB1 frames reach a real server: identical
// frame payloads are driven into identical server stacks (server.New at
// `shards`, no WAL — durability is walPhase's subject) once as sequential
// keep-alive HTTP POSTs and once over one CWT1 connection with
// transportWindow pipelined frames in flight. Both acks mean the same
// thing — batch validated and queued on the shard executors — so
// acked-edges-per-second is an apples-to-apples transport number: the HTTP
// leg pays a full request/response round trip per frame, the TCP leg
// streams frames back to back and reads compact acks out of band.
func transportPhase(cfg phaseConfig, batches [][]streamcard.Edge, shards int) (httpEPS, tcpEPS float64, err error) {
	seconds := cfg.seconds
	if seconds > transportSecondsCap {
		seconds = transportSecondsCap
	}
	dur := time.Duration(seconds * float64(time.Second))

	// Re-slice the pool into transport-sized frames and pre-encode the CWB1
	// bodies both legs share.
	var frames [][]streamcard.Edge
	for _, b := range batches {
		for len(b) >= transportFrameEdges && len(frames) < 64 {
			frames = append(frames, b[:transportFrameEdges])
			b = b[transportFrameEdges:]
		}
	}
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("transport: batch pool smaller than one %d-edge frame", transportFrameEdges)
	}
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = stream.AppendWire(nil, f)
	}

	newServer := func() (*server.Server, net.Listener, error) {
		s, err := server.New(server.Config{
			MemoryBits: cfg.mbits, Shards: shards, Generations: cfg.gens, Seed: 1,
		})
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		return s, ln, nil
	}

	httpLeg := func() (float64, error) {
		s, ln, err := newServer()
		if err != nil {
			return 0, err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer func() { hs.Close(); s.Close() }()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		url := "http://" + ln.Addr().String() + "/ingest"
		deadline := time.Now().Add(dur)
		start := time.Now()
		var edges int64
		for i := 0; time.Now().Before(deadline); i++ {
			resp, err := client.Post(url, stream.WireContentType, bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("transport: http ingest status %d", resp.StatusCode)
			}
			edges += int64(len(frames[i%len(frames)]))
		}
		return float64(edges) / time.Since(start).Seconds(), nil
	}

	tcpLeg := func() (float64, error) {
		s, ln, err := newServer()
		if err != nil {
			return 0, err
		}
		go s.ServeTCP(ln)
		defer s.Close()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(stream.TCPMagic)); err != nil {
			return 0, err
		}
		// The reader drains acks until the server's half-close EOF (every
		// frame acked), releasing the writer's window as they land; elapsed
		// time runs until the last ack, so the tail drain is counted exactly
		// like the other phases count their absorption tails.
		sem := make(chan struct{}, transportWindow)
		var ackedEdges atomic.Int64
		ackErr := make(chan error, 1)
		ackDone := make(chan struct{})
		go func() {
			defer close(ackDone)
			br := bufio.NewReaderSize(conn, 32<<10)
			var rec [stream.AckLen]byte
			for {
				if _, err := io.ReadFull(br, rec[:]); err != nil {
					if err != io.EOF {
						ackErr <- err
					}
					return
				}
				seq, status, err := stream.ParseAck(rec[:])
				if err != nil {
					ackErr <- err
					return
				}
				if status != stream.AckOK {
					ackErr <- fmt.Errorf("transport: tcp ack status %d for frame %d", status, seq)
					return
				}
				ackedEdges.Add(int64(len(frames[int((seq-1))%len(frames)])))
				<-sem
			}
		}()
		deadline := time.Now().Add(dur)
		start := time.Now()
		var buf []byte
	write:
		for seq := uint64(1); time.Now().Before(deadline); seq++ {
			select {
			case sem <- struct{}{}:
			case <-ackDone:
				break write
			}
			body := bodies[int((seq-1))%len(bodies)]
			buf = stream.AppendFrameHeader(buf[:0], seq, len(body))
			buf = append(buf, body...)
			if _, err := conn.Write(buf); err != nil {
				break
			}
		}
		conn.(*net.TCPConn).CloseWrite()
		<-ackDone
		elapsed := time.Since(start)
		select {
		case err := <-ackErr:
			return 0, err
		default:
		}
		return float64(ackedEdges.Load()) / elapsed.Seconds(), nil
	}

	// Interleaved best-of-N, exactly like walPhase: a slow scheduler slice
	// landing on one leg must not masquerade as transport overhead.
	for rep := 0; rep < transportReps; rep++ {
		h, err := httpLeg()
		if err != nil {
			return 0, 0, err
		}
		tcp, err := tcpLeg()
		if err != nil {
			return 0, 0, err
		}
		httpEPS = math.Max(httpEPS, h)
		tcpEPS = math.Max(tcpEPS, tcp)
	}
	return httpEPS, tcpEPS, nil
}

// walSecondsCap bounds each leg-rep of the WAL-overhead phase; walReps
// interleaved repetitions of the three legs are run and the best rep per
// leg kept (see the bottom of walPhase).
const (
	walSecondsCap = 0.75
	walReps       = 3
)

// walPhase measures what durability costs an ingest request: each leg
// runs the server's per-request cycle — decode a pre-encoded text body
// (the protocol CI's smoke jobs drive), append the batch to a real
// on-disk log, pass the policy's group-commit barrier, absorb — on a
// fresh stack. Three legs: no WAL at all (the request-cost baseline), the
// interval policy (append is one buffered write(2); fsync rides the
// background group-committer), and the always policy (a synchronous
// fsync bounds every batch — the price of zero power-loss exposure,
// reported but not gated).
//
// The leg has the cardserved pipeline's shape, in miniature:
// cfg.ingesters driver goroutines (the server handles requests
// concurrently) each decode a request body, append to the log, pass the
// commit barrier, and hand the batch to an absorber goroutine — because
// that is where the server runs these steps (submit on request
// goroutines, absorption on the shard executors), and the WAL's write
// and fsync stalls are kernel waits that OVERLAP other requests' decode
// and the executors' absorption there. A single-threaded
// decode-append-absorb loop would charge every page-cache writeback
// stall to the WAL serially and report disk bandwidth, not the overhead
// the deployed ack path actually pays. Decode stays inside the loop for
// the same fidelity: a request pays it before submit either way.
func walPhase(cfg phaseConfig, batches [][]streamcard.Edge) (offEPS, intervalEPS, alwaysEPS float64, err error) {
	if len(batches) > 16 {
		batches = batches[:16]
	}
	seconds := cfg.seconds
	if seconds > walSecondsCap {
		seconds = walSecondsCap
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		var buf bytes.Buffer
		if err := stream.WriteText(&buf, b); err != nil {
			return 0, 0, 0, err
		}
		bodies[i] = buf.Bytes()
	}
	leg := func(policy wal.Policy, logged bool) (float64, error) {
		s := buildStack(cfg.mbits, cfg.shards, cfg.gens)
		var w *wal.WAL
		if logged {
			dir, err := os.MkdirTemp("", "querybench-wal-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			w, err = wal.Open(wal.Options{Dir: dir, Fingerprint: []byte("querybench"), Policy: policy})
			if err != nil {
				return 0, err
			}
			defer w.Close()
		}
		queue := make(chan []streamcard.Edge, 16)
		var absorbWG sync.WaitGroup
		absorbWG.Add(1)
		go func() {
			defer absorbWG.Done()
			for b := range queue {
				s.ObserveBatch(b)
			}
		}()
		drivers := cfg.ingesters
		if drivers < 2 {
			drivers = 2
		}
		var (
			driverWG sync.WaitGroup
			edges    atomic.Int64
			legMu    sync.Mutex
			legErr   error
		)
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		start := time.Now()
		for d := 0; d < drivers; d++ {
			driverWG.Add(1)
			go func(d int) {
				defer driverWG.Done()
				fail := func(err error) {
					legMu.Lock()
					if legErr == nil {
						legErr = err
					}
					legMu.Unlock()
				}
				for i := d; time.Now().Before(deadline); i += drivers {
					b, err := stream.ParseTextBatch(bytes.NewReader(bodies[i%len(bodies)]))
					if err != nil {
						fail(err)
						return
					}
					if w != nil {
						seq, err := w.AppendBatch(b)
						if err != nil {
							fail(err)
							return
						}
						if err := w.Commit(seq); err != nil {
							fail(err)
							return
						}
					}
					queue <- b
					edges.Add(int64(len(b)))
				}
			}(d)
		}
		driverWG.Wait()
		close(queue)
		absorbWG.Wait() // throughput counts the tail drain, like the server's /flush
		if legErr != nil {
			return 0, legErr
		}
		return float64(edges.Load()) / time.Since(start).Seconds(), nil
	}
	// Interleaved best-of-N: the host's spare CPU varies on the scale of a
	// leg, and a slow slice landing on one leg would masquerade as WAL
	// overhead (or hide it). Each rep runs all three legs back to back and
	// the best rep per leg is kept — the standard way to measure cost, not
	// contention.
	for rep := 0; rep < walReps; rep++ {
		off, err := leg(wal.SyncNever, false)
		if err != nil {
			return 0, 0, 0, err
		}
		interval, err := leg(wal.SyncInterval, true)
		if err != nil {
			return 0, 0, 0, err
		}
		always, err := leg(wal.SyncAlways, true)
		if err != nil {
			return 0, 0, 0, err
		}
		offEPS = math.Max(offEPS, off)
		intervalEPS = math.Max(intervalEPS, interval)
		alwaysEPS = math.Max(alwaysEPS, always)
	}
	return offEPS, intervalEPS, alwaysEPS, nil
}

// scalingSecondsCap bounds each leg of the ingest-scaling phase; like the
// wire phase, the ratio stabilizes well before the full phase duration.
const scalingSecondsCap = 1.5

// ingestScalingPhase measures what the shard-executor pipeline buys over a
// single ingest thread, on identical work: both legs run the same
// partition-then-absorb-via-ObserveShardBatch path over the same batch
// pool against a fresh stack each.
//
// The serial leg is executors=1: one goroutine splits each batch and
// absorbs every shard's sub-batch in shard order. The parallel leg is the
// cardserved structure in miniature: the same goroutine splits and fans
// sub-batches out to per-shard bounded queues, one executor goroutine per
// shard absorbs, and a per-batch refcount returns the partition buffers to
// the pool when the last shard finishes. Identical instructions, identical
// per-shard sub-streams — the legs differ only in how many cores may work
// at once, so the ratio isolates the pipeline's parallel speedup.
func ingestScalingPhase(cfg phaseConfig, batches [][]streamcard.Edge, shards int) (serialEPS, parEPS float64) {
	seconds := cfg.seconds
	if seconds > scalingSecondsCap {
		seconds = scalingSecondsCap
	}
	dur := time.Duration(seconds * float64(time.Second))

	// Serial leg.
	s := buildStack(cfg.mbits, shards, cfg.gens)
	part := stream.NewPartitioner(shards, s.ShardIndex)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var edges int64
	for i := 0; time.Now().Before(deadline); i++ {
		src := batches[i%len(batches)]
		b := part.Split(src)
		for t := 0; t < shards; t++ {
			if sub := b.Shard(t); len(sub) > 0 {
				s.ObserveShardBatch(t, sub)
			}
		}
		b.Release()
		edges += int64(len(src))
	}
	serialEPS = float64(edges) / time.Since(start).Seconds()

	// Parallel leg.
	type scaleBatch struct {
		part      *stream.Partitioned
		remaining atomic.Int32
	}
	type scaleItem struct {
		sub []streamcard.Edge
		b   *scaleBatch
	}
	s = buildStack(cfg.mbits, shards, cfg.gens)
	part = stream.NewPartitioner(shards, s.ShardIndex)
	queues := make([]chan scaleItem, shards)
	var wg sync.WaitGroup
	for i := range queues {
		queues[i] = make(chan scaleItem, 64)
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for it := range queues[idx] {
				s.ObserveShardBatch(idx, it.sub)
				if it.b.remaining.Add(-1) == 0 {
					it.b.part.Release()
				}
			}
		}(i)
	}
	deadline = time.Now().Add(dur)
	start = time.Now()
	edges = 0
	for i := 0; time.Now().Before(deadline); i++ {
		src := batches[i%len(batches)]
		b := &scaleBatch{part: part.Split(src)}
		touched := 0
		for t := 0; t < shards; t++ {
			if len(b.part.Shard(t)) > 0 {
				touched++
			}
		}
		if touched == 0 {
			b.part.Release()
			continue
		}
		b.remaining.Store(int32(touched))
		for t := 0; t < shards; t++ {
			if sub := b.part.Shard(t); len(sub) > 0 {
				queues[t] <- scaleItem{sub: sub, b: b}
			}
		}
		edges += int64(len(src))
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait() // throughput counts the tail drain: all submitted edges absorbed
	parEPS = float64(edges) / time.Since(start).Seconds()
	return serialEPS, parEPS
}

func buildStack(mbits, shards, gens int) *streamcard.Sharded {
	per := mbits / shards
	return streamcard.NewSharded(shards, func(int) streamcard.Estimator {
		return streamcard.NewWindowed(func() streamcard.Estimator {
			return streamcard.NewFreeRS(per, streamcard.WithSeed(1))
		}, streamcard.WithGenerations(gens))
	})
}

// Analytics phase sizing: enough iterations per row to clear the
// minSamples floor with headroom, and a serving-realistic k.
const (
	analyticsIters = 20
	analyticsK     = 10
)

// serialView is the one-goroutine analytics reference: it walks the
// shards of a published view sequentially, exactly as the read path did
// before the fan-out. It deliberately holds the view in a named field, not
// an embedded one, so the view's own TopK method is never promoted —
// TopKSerial over a serialView cannot accidentally dispatch into the
// parallel path, and the serial legs time genuinely serial work.
type serialView struct{ v *streamcard.ShardedView }

func (s serialView) Observe(user, item uint64)            { panic("read-only") }
func (s serialView) ObserveBatch(edges []streamcard.Edge) { panic("read-only") }
func (s serialView) Estimate(user uint64) float64         { return s.v.Estimate(user) }
func (s serialView) TotalDistinct() float64               { return s.v.TotalDistinct() }
func (s serialView) MemoryBits() int64                    { return s.v.MemoryBits() }
func (s serialView) Name() string                         { return s.v.Name() }

func (s serialView) Users(fn func(user uint64, estimate float64)) {
	for i := 0; i < s.v.NumShards(); i++ {
		s.v.ShardView(i).(streamcard.AnytimeEstimator).Users(fn)
	}
}

func (s serialView) RangeUsers(fn func(user uint64, estimate float64)) {
	for i := 0; i < s.v.NumShards(); i++ {
		if r, ok := s.v.ShardView(i).(streamcard.UserRanger); ok {
			r.RangeUsers(fn)
		} else {
			s.v.ShardView(i).(streamcard.AnytimeEstimator).Users(fn)
		}
	}
}

func (s serialView) NumUsers() int {
	n := 0
	for i := 0; i < s.v.NumShards(); i++ {
		n += s.v.ShardView(i).(streamcard.AnytimeEstimator).NumUsers()
	}
	return n
}

// analyticsPhase measures the analytics read path — top-k, sorted user
// enumeration, user counts, merged totals — serial versus shard-parallel,
// on a stack holding `users` distinct users spread across the live
// generations. Each timed iteration runs on a freshly dirtied view: a
// one-edge write lands in every shard first, so all fold caches are cold
// and both legs pay the same fold work. The topk_cached row re-queries an
// unchanged view; the phase fails if those repeats re-fold anything.
func analyticsPhase(mbits, shards, gens, users int) (map[string][]float64, *streamcard.FoldStats, error) {
	var fst streamcard.FoldStats
	per := mbits / shards
	s := streamcard.NewSharded(shards, func(int) streamcard.Estimator {
		return streamcard.NewWindowed(func() streamcard.Estimator {
			return streamcard.NewFreeRS(per, streamcard.WithSeed(1))
		}, streamcard.WithGenerations(gens), streamcard.WithFoldStats(&fst))
	})

	// Fill: every user observed with 1..4 items, split across the window's
	// generations so the folds sum several live sketches per shard.
	rng := hashing.NewRNG(9)
	fills := gens - 1
	batch := make([]streamcard.Edge, 0, 1<<16)
	flush := func() {
		if len(batch) > 0 {
			s.ObserveBatch(batch)
			batch = batch[:0]
		}
	}
	for g := 0; g < fills; g++ {
		for u := g; u < users; u += fills {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				batch = append(batch, streamcard.Edge{User: uint64(u) + 1, Item: rng.Uint64()})
				if len(batch) == cap(batch) {
					flush()
				}
			}
		}
		flush()
		if g < fills-1 {
			s.Rotate()
		}
	}

	// One resident user per shard, so a round of touch writes dirties every
	// shard and the next snapshot publishes all-cold folds.
	touch := make([]uint64, 0, shards)
	seen := make(map[int]bool, shards)
	for u := uint64(1); len(touch) < shards && u < uint64(users)+1; u++ {
		if i := s.ShardIndex(u); !seen[i] {
			seen[i] = true
			touch = append(touch, u)
		}
	}
	freshView := func() *streamcard.ShardedView {
		for _, u := range touch {
			s.Observe(u, rng.Uint64())
		}
		return s.Snapshot()
	}

	// Bit-identity spot check before timing anything.
	{
		v := freshView()
		if !reflect.DeepEqual(v.TopK(analyticsK), streamcard.TopKSerial(serialView{v}, analyticsK)) {
			return nil, nil, fmt.Errorf("analytics: parallel top-k diverges from the serial reference")
		}
	}

	lat := map[string][]float64{}
	row := func(kind string, fn func(v *streamcard.ShardedView)) {
		for i := 0; i < analyticsIters; i++ {
			v := freshView()
			t0 := time.Now()
			fn(v)
			lat[kind] = append(lat[kind], float64(time.Since(t0).Microseconds()))
		}
	}
	row("topk_serial", func(v *streamcard.ShardedView) { streamcard.TopKSerial(serialView{v}, analyticsK) })
	row("topk", func(v *streamcard.ShardedView) { v.TopK(analyticsK) })
	row("users_serial", func(v *streamcard.ShardedView) { serialView{v}.RangeUsers(func(uint64, float64) {}) })
	row("users", func(v *streamcard.ShardedView) { v.RangeUsers(func(uint64, float64) {}) })
	row("numusers_serial", func(v *streamcard.ShardedView) { serialView{v}.NumUsers() })
	row("numusers", func(v *streamcard.ShardedView) { v.NumUsers() })
	row("merged_total", func(v *streamcard.ShardedView) { v.TotalDistinctMerged() })

	// Cached repeats: one fresh view, one warming query, then timed repeats
	// that must re-fold nothing.
	v := freshView()
	_ = v.TopK(analyticsK)
	computes := fst.Computes()
	for i := 0; i < analyticsIters; i++ {
		t0 := time.Now()
		_ = v.TopK(analyticsK)
		lat["topk_cached"] = append(lat["topk_cached"], float64(time.Since(t0).Microseconds()))
	}
	if got := fst.Computes(); got != computes {
		return nil, nil, fmt.Errorf("analytics: repeated top-k on an unchanged view re-folded (computes %d -> %d)", computes, got)
	}
	return lat, &fst, nil
}

// makeBatches pre-generates a bursty stream sliced into ObserveBatch-sized
// chunks, so the measured phases do no generation work.
func makeBatches(edges, batch, users int, seed uint64) [][]streamcard.Edge {
	rng := hashing.NewRNG(seed)
	all := make([]streamcard.Edge, 0, edges)
	for len(all) < edges {
		u := uint64(rng.Intn(users) + 1)
		run := rng.Intn(8) + 1
		for r := 0; r < run && len(all) < edges; r++ {
			all = append(all, streamcard.Edge{User: u, Item: rng.Uint64()})
		}
	}
	var batches [][]streamcard.Edge
	for i := 0; i < len(all); i += batch {
		end := i + batch
		if end > len(all) {
			end = len(all)
		}
		batches = append(batches, all[i:end])
	}
	return batches
}

func warmup(s *streamcard.Sharded, batches [][]streamcard.Edge) {
	n := len(batches)
	if n > 16 {
		n = 16
	}
	for _, b := range batches[:n] {
		s.ObserveBatch(b)
	}
	_ = s.Snapshot()
	_ = s.Estimate(1)
}

// phaseConfig carries the shared knobs of both measured phases.
type phaseConfig struct {
	mbits, shards, gens, users int
	ingesters, qps, rotatems   int
	seconds                    float64
}

// Heavy-query pacing: real monitors scrape aggregates on wall-clock
// schedules, not per point query, so the contended phase issues them the
// same way — one ops querier fires top-k, totals, and user counts at these
// periods while the rest of the fleet runs paced point estimates. The
// periods are chosen so a default 3 s phase collects ≥ minSamples of each
// gated kind (earlier 1–2 s periods yielded 2–3 samples, which made the
// reported p95/p99 pure noise). The merged total — a register-level fold
// over every generation, milliseconds by design — keeps a slow scrape-rate
// cadence; its handful of samples is exactly what the minSamples
// suppression exists for.
const (
	topkEvery        = 150 * time.Millisecond
	totalEvery       = 120 * time.Millisecond
	numusersEvery    = 130 * time.Millisecond
	mergedTotalEvery = 1 * time.Second
)

// runPhase cycles the batch pool through the ingester goroutines for the
// configured duration (the window keeps every cycle write-heavy: each
// rotation opens a fresh generation that re-absorbs recurring pairs), with
// an optional rotation ticker and an optional query fleet, and returns the
// ingest throughput plus the query latencies by kind.
func runPhase(cfg phaseConfig, batches [][]streamcard.Edge, queriers int) (edgesPerSec float64, lat map[string][]float64, queries int) {
	s := buildStack(cfg.mbits, cfg.shards, cfg.gens)

	var done atomic.Bool
	var stopRot chan struct{}
	var rotWG sync.WaitGroup
	if cfg.rotatems > 0 {
		stopRot = make(chan struct{})
		rotWG.Add(1)
		go func() {
			defer rotWG.Done()
			t := time.NewTicker(time.Duration(cfg.rotatems) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.Rotate()
				case <-stopRot:
					return
				}
			}
		}()
	}

	lat = map[string][]float64{}
	var latMu sync.Mutex
	merge := func(local map[string][]float64) {
		latMu.Lock()
		for k, v := range local {
			lat[k] = append(lat[k], v...)
		}
		latMu.Unlock()
	}
	timed := func(local map[string][]float64, kind string, fn func()) {
		t0 := time.Now()
		fn()
		local[kind] = append(local[kind], float64(time.Since(t0).Microseconds()))
	}

	var queryWG sync.WaitGroup
	if queriers > 0 {
		// Querier 0 is the ops querier: the heavy aggregate kinds on their
		// wall-clock schedules.
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			local := map[string][]float64{}
			var lastTopk, lastTotal, lastNum, lastMerged time.Time
			for !done.Load() {
				now := time.Now()
				switch {
				case now.Sub(lastTopk) >= topkEvery:
					lastTopk = now
					timed(local, "topk", func() { _ = streamcard.TopK(s.Snapshot(), 10) })
				case now.Sub(lastTotal) >= totalEvery:
					lastTotal = now
					// The anytime total: what a plain GET /total serves.
					timed(local, "total", func() { _ = s.Snapshot().TotalDistinct() })
				case now.Sub(lastNum) >= numusersEvery:
					lastNum = now
					timed(local, "numusers", func() { _ = s.NumUsers() })
				case now.Sub(lastMerged) >= mergedTotalEvery:
					lastMerged = now
					// The union reading (/total?method=merged), with the
					// server's fallback to the sum on a merge error.
					timed(local, "merged_total", func() {
						v := s.Snapshot()
						if _, err := v.TotalDistinctMerged(); err != nil {
							_ = v.TotalDistinct()
						}
					})
				default:
					time.Sleep(5 * time.Millisecond)
				}
			}
			merge(local)
		}()
	}
	estimators := queriers - 1
	var interval time.Duration
	if cfg.qps > 0 && estimators > 0 {
		interval = time.Duration(float64(estimators) / float64(cfg.qps) * float64(time.Second))
	}
	for q := 0; q < estimators; q++ {
		queryWG.Add(1)
		go func(seed uint64) {
			defer queryWG.Done()
			rng := hashing.NewRNG(seed)
			local := map[string][]float64{}
			for !done.Load() {
				timed(local, "estimate", func() { _ = s.Estimate(uint64(rng.Intn(cfg.users) + 1)) })
				if interval > 0 {
					time.Sleep(interval)
				}
			}
			merge(local)
		}(uint64(1000 + q))
	}
	// Give the query fleet a beat to spin up before timing ingest.
	if queriers > 0 {
		time.Sleep(10 * time.Millisecond)
	}

	var next atomic.Int64
	var ingested atomic.Int64
	var ingestWG sync.WaitGroup
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	for w := 0; w < cfg.ingesters; w++ {
		ingestWG.Add(1)
		go func() {
			defer ingestWG.Done()
			for time.Now().Before(deadline) {
				b := batches[int(next.Add(1)-1)%len(batches)]
				s.ObserveBatch(b)
				ingested.Add(int64(len(b)))
			}
		}()
	}
	ingestWG.Wait()
	elapsed := time.Since(start).Seconds()

	done.Store(true)
	queryWG.Wait()
	if stopRot != nil {
		close(stopRot)
		rotWG.Wait()
	}
	for _, v := range lat {
		queries += len(v)
	}
	return float64(ingested.Load()) / elapsed, lat, queries
}

// snapshotPublishBytes measures the allocation cost of assembling a view:
// a single-user write dirties the stack, then the Snapshot call — and only
// it — is bracketed by allocation readings. With writer-side publication
// armed (the warm-up Snapshot in round one arms it), the write itself
// publishes the shard's fresh snapshot and pays the lazy copy-on-write
// detach, both inside the write and outside the bracket — so the bracket
// isolates exactly what a reader pays, which the cost model says is
// assembly of already-published pointers: small and size-independent.
func snapshotPublishBytes(mbits, shards, gens int) float64 {
	s := buildStack(mbits, shards, gens)
	for _, b := range makeBatches(200_000, 8192, 100_000, 3) {
		s.ObserveBatch(b)
	}
	const rounds = 64
	var ms1, ms2 runtime.MemStats
	var total uint64
	for i := 0; i < rounds; i++ {
		s.Observe(uint64(i%1000+1), uint64(i)|1<<40)
		runtime.ReadMemStats(&ms1)
		_ = s.Snapshot()
		runtime.ReadMemStats(&ms2)
		total += ms2.TotalAlloc - ms1.TotalAlloc
	}
	return float64(total) / rounds
}

// minSamples is the floor below which summarize refuses to extract
// percentiles: an index into a 2-sample sorted slice is not a p99, and the
// gates refuse to certify kinds that stayed under the floor.
const minSamples = 16

// summarize sorts each kind's latencies and extracts percentiles, marking
// kinds with fewer than minSamples observations instead of reporting
// meaningless quantiles.
func summarize(lat map[string][]float64) map[string]LatencySummary {
	out := map[string]LatencySummary{}
	for kind, v := range lat {
		if len(v) == 0 {
			continue
		}
		if len(v) < minSamples {
			out[kind] = LatencySummary{Count: len(v), TooFewSamples: true}
			continue
		}
		sort.Float64s(v)
		pct := func(p float64) float64 {
			i := int(p * float64(len(v)-1))
			return v[i]
		}
		out[kind] = LatencySummary{
			Count: len(v),
			P50Us: pct(0.50),
			P95Us: pct(0.95),
			P99Us: pct(0.99),
		}
	}
	return out
}
