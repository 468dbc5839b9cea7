// Command windowbench measures what the time layer costs: ingest throughput
// of a k-generation windowed FreeRS versus the bare estimator on the same
// bursty stream, and the price of one rotation (allocating and installing a
// fresh generation). It writes the results as JSON — CI runs it and uploads
// BENCH_window.json so the windowing perf trajectory is tracked per commit.
//
//	go run ./cmd/windowbench -edges 2000000 -out BENCH_window.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	streamcard "repro"
	"repro/internal/hashing"
)

// Result is the JSON document windowbench emits.
type Result struct {
	Edges             int     `json:"edges"`
	MemoryBits        int     `json:"memory_bits"`
	Generations       int     `json:"generations"`
	EpochEdges        int     `json:"epoch_edges"`
	PlainEdgesPerSec  float64 `json:"plain_edges_per_sec"`
	WindowEdgesPerSec float64 `json:"windowed_edges_per_sec"`
	WindowOverheadPct float64 `json:"windowed_overhead_pct"`
	Rotations         int     `json:"rotations"`
	NsPerRotation     float64 `json:"ns_per_rotation"`
	PlainNsPerEdge    float64 `json:"plain_ns_per_edge"`
	WindowedNsPerEdge float64 `json:"windowed_ns_per_edge"`
	BatchSize         int     `json:"batch_size"`
	// Host parallelism, so stored BENCH files are comparable across runners.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	// Snapshot publication on the loaded window: nanoseconds and allocated
	// bytes per Windowed.Snapshot call taken right after a write (the
	// stale-view worst case). Both must stay small and independent of the
	// sketch size — the copy-on-write read-path contract; cmd/querybench
	// asserts the size-independence explicitly.
	NsPerSnapshot    float64 `json:"ns_per_snapshot"`
	BytesPerSnapshot float64 `json:"bytes_per_snapshot"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "windowbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("windowbench", flag.ContinueOnError)
	var (
		edges = fs.Int("edges", 2_000_000, "edges to ingest per variant")
		mbits = fs.Int("mbits", 1<<22, "sketch memory in bits (per generation)")
		gens  = fs.Int("gens", 4, "window generations k")
		epoch = fs.Int("epoch", 0, "edges per epoch (0 = edges/16)")
		batch = fs.Int("batch", 1024, "ObserveBatch chunk size")
		out   = fs.String("out", "BENCH_window.json", "output file (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *edges <= 0 || *gens < 2 || *batch <= 0 {
		return fmt.Errorf("need edges > 0, gens >= 2, batch > 0")
	}
	if *epoch == 0 {
		*epoch = *edges / 16
		if *epoch == 0 {
			*epoch = 1
		}
	}

	stream := burstEdges(*edges, 1)
	build := func() streamcard.Estimator { return streamcard.NewFreeRS(*mbits) }

	// Warm up code paths and the edge slice before timing anything.
	warm := stream
	if len(warm) > 100_000 {
		warm = warm[:100_000]
	}
	ingest(build(), warm, *batch)

	plainSec := ingest(build(), stream, *batch)
	w := streamcard.NewWindowed(build,
		streamcard.WithGenerations(*gens),
		streamcard.WithRotateEveryEdges(uint64(*epoch)))
	windowSec := ingest(w, stream, *batch)

	// Per-rotation cost on a loaded window: allocate + install a fresh
	// generation, retire the oldest.
	const rotations = 32
	start := time.Now()
	for i := 0; i < rotations; i++ {
		w.Rotate()
	}
	rotNs := float64(time.Since(start).Nanoseconds()) / rotations

	// Snapshot publication cost on the loaded window, write-staled each
	// round so every call rebuilds and republishes the frozen view.
	const snaps = 64
	var ms1, ms2 runtime.MemStats
	var snapNs, snapBytes float64
	for i := 0; i < snaps; i++ {
		w.Observe(uint64(i%977+1), uint64(i)|1<<40)
		runtime.ReadMemStats(&ms1)
		t0 := time.Now()
		_ = w.Snapshot()
		dt := time.Since(t0)
		runtime.ReadMemStats(&ms2)
		snapNs += float64(dt.Nanoseconds())
		snapBytes += float64(ms2.TotalAlloc - ms1.TotalAlloc)
	}

	n := float64(*edges)
	res := Result{
		Edges:             *edges,
		MemoryBits:        *mbits,
		Generations:       *gens,
		EpochEdges:        *epoch,
		PlainEdgesPerSec:  n / plainSec,
		WindowEdgesPerSec: n / windowSec,
		WindowOverheadPct: (windowSec/plainSec - 1) * 100,
		Rotations:         rotations,
		NsPerRotation:     rotNs,
		PlainNsPerEdge:    plainSec / n * 1e9,
		WindowedNsPerEdge: windowSec / n * 1e9,
		BatchSize:         *batch,
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NsPerSnapshot:     snapNs / snaps,
		BytesPerSnapshot:  snapBytes / snaps,
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		_, err = stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "windowbench: plain %.1fM edges/s, windowed(k=%d) %.1fM edges/s (%.1f%% overhead), %.0f ns/rotation, %.0f ns + %.0f B/snapshot -> %s\n",
		res.PlainEdgesPerSec/1e6, *gens, res.WindowEdgesPerSec/1e6, res.WindowOverheadPct, rotNs,
		res.NsPerSnapshot, res.BytesPerSnapshot, *out)
	return nil
}

// ingest feeds the stream in chunks and returns the elapsed seconds.
func ingest(est streamcard.Estimator, edges []streamcard.Edge, chunk int) float64 {
	start := time.Now()
	for i := 0; i < len(edges); i += chunk {
		end := i + chunk
		if end > len(edges) {
			end = len(edges)
		}
		est.ObserveBatch(edges[i:end])
	}
	return time.Since(start).Seconds()
}

// burstEdges builds a bursty stream: users emit runs of 1..24 consecutive
// edges, the arrival shape the batch fast path amortizes over.
func burstEdges(n int, seed uint64) []streamcard.Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]streamcard.Edge, 0, n)
	for len(edges) < n {
		u := uint64(rng.Intn(100000) + 1)
		run := rng.Intn(24) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, streamcard.Edge{User: u, Item: rng.Uint64()})
		}
	}
	return edges
}
