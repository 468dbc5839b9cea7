// Command querybench runs CI's timing gates: the checks that need a loaded
// serving stack, real listeners, a real disk or several CPUs, which no
// package test can hold. It takes no flags. The stack, the load and every
// bound are the constants below. It prints one line per gate, with the
// measured value, the limit and the sample count, and exits 1 if any gate
// fails. A ratio gate that needs more CPUs than the host has is skipped,
// and its line says why.
//
//	go run ./cmd/querybench
//
// The gates, in run order:
//
//   - point reads under ingest: /estimate and /total p50 and p99 at most
//     1 ms, each over at least 1,000 samples. Two ingesters absorb
//     65,536-edge batches into Sharded(Windowed(FreeRS)), the stack
//     cardserved runs, and a ticker rotates it every 50 ms. Seven point
//     queriers alternate Estimate and the anytime total at 2,000 reads/s
//     in total; an ops querier scrapes top-k, user counts and the merged
//     total on wall-clock schedules.
//   - wire: decoding and absorbing CWB1 frames at least 2x as fast as the
//     text line protocol.
//   - transport: CWT1 pipelined over one TCP connection at least 1.5x
//     sequential keep-alive HTTP POSTs of the same frames into a real
//     server (needs 2 CPUs).
//   - ingest scaling: one executor per shard at least 1.8x one goroutine,
//     at 8 shards (needs 4 CPUs).
//   - analytics: a top-k over 120k users, each on a freshly written view,
//     p50 at most 50 ms, and the shard-parallel top-k at least 1.8x the
//     serial reference (needs 4 CPUs). A write does not make the next
//     top-k cold: it moves only the current generation, and each shard's
//     fold of its sealed generations is built once per epoch, by the
//     epoch's first analytics read.
//   - WAL: the interval (group-commit) policy costs at most 15% of no-WAL
//     ingest throughput, best of 3 interleaved reps per leg.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
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

// The stack and the load every phase shares.
const (
	memoryBits  = 1 << 22 // total sketch memory, split across shards, per generation
	shards      = 4
	generations = 4
	batchEdges  = 65536
	poolEdges   = 4_000_000 // edges pre-generated and cycled through the window
	users       = 50_000
	ingesters   = 2
	// scalingShards is the width of the transport, ingest-scaling and
	// analytics stacks: one executor per shard in their parallel legs.
	scalingShards = 8
)

// The point-read phase.
const (
	pointPhase       = 3 * time.Second
	pointQueriers    = 7
	pointReadsPerSec = 2000 // across the whole point fleet
	rotateEvery      = 50 * time.Millisecond
	// minPointSamples leaves ten samples beyond the p99.
	minPointSamples = 1000
	maxPointReadUs  = 1000

	// The ops querier's scrape periods.
	topkEvery        = 150 * time.Millisecond
	numusersEvery    = 130 * time.Millisecond
	mergedTotalEvery = 1 * time.Second
)

func main() {
	gates, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "querybench:", err)
		os.Exit(1)
	}
	failed := 0
	for _, g := range gates {
		op, verdict := ">=", g.verdict()
		if g.atMost {
			op = "<="
		}
		fmt.Printf("querybench: %-20s %10.2f %s %-6g n=%-5d %s\n", g.name, g.value, op, g.limit, g.samples, verdict)
		if strings.HasPrefix(verdict, "FAIL") {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "querybench: %d of %d gates failed\n", failed, len(gates))
		os.Exit(1)
	}
}

// gate is one CI check: a measured value against its limit.
type gate struct {
	name         string
	value, limit float64
	atMost       bool // the value must not exceed the limit; otherwise it must reach it
	samples      int
	minSamples   int    // fewer samples fail the gate: their tail is noise
	skip         string // non-empty when the host cannot certify the gate, with the reason
}

// verdict is "ok", "skipped: <why>" or "FAIL", with a reason when the
// value alone did not decide it.
func (g gate) verdict() string {
	switch {
	case g.skip != "":
		return "skipped: " + g.skip
	case g.samples < g.minSamples:
		return fmt.Sprintf("FAIL: below the %d-sample floor", g.minSamples)
	case g.atMost && g.value > g.limit, !g.atMost && g.value < g.limit:
		return "FAIL"
	}
	return "ok"
}

// latencyGate gates quantile p of samples (µs) at limit.
func latencyGate(name string, samples []float64, p, limit float64, minSamples int) gate {
	return gate{name: name, value: quantile(samples, p), limit: limit, atMost: true,
		samples: len(samples), minSamples: minSamples}
}

// quantile returns quantile p of v, sorting v in place; 0 when v is empty.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[int(p*float64(len(v)-1))]
}

// needCPUs returns why a parallel-speedup gate cannot be certified on this
// host, or "" when it can. Below n CPUs the legs time-slice the same cores,
// so the ratio sits near 1 by construction, not by regression.
func needCPUs(n int, what string) string {
	if cpus := runtime.NumCPU(); cpus < n {
		return fmt.Sprintf("host has %d CPUs; certifying %s needs at least %d", cpus, what, n)
	}
	return ""
}

func run() ([]gate, error) {
	batches := makeBatches()
	// Warm up code paths and fault in the edge slices before timing.
	warmup(buildStack(shards), batches)

	estimate, total := pointReads(batches)
	gates := []gate{
		latencyGate("estimate_p50_us", estimate, 0.50, maxPointReadUs, minPointSamples),
		latencyGate("estimate_p99_us", estimate, 0.99, maxPointReadUs, minPointSamples),
		latencyGate("total_p50_us", total, 0.50, maxPointReadUs, minPointSamples),
		latencyGate("total_p99_us", total, 0.99, maxPointReadUs, minPointSamples),
	}

	text, bin, err := wirePhase(batches)
	if err != nil {
		return nil, err
	}
	gates = append(gates, gate{name: "wire_speedup_x", value: bin / text, limit: 2, samples: 1})

	httpEPS, tcpEPS, err := transportPhase(batches)
	if err != nil {
		return nil, err
	}
	gates = append(gates, gate{name: "tcp_speedup_x", value: tcpEPS / httpEPS, limit: 1.5,
		samples: transportReps, skip: needCPUs(2, "pipelined-transport speedup")})

	serialEPS, parEPS := ingestScalingPhase(batches)
	gates = append(gates, gate{name: "ingest_scaling_x", value: parEPS / serialEPS, limit: 1.8,
		samples: 1, skip: needCPUs(4, "shard-parallel scaling")})

	serial, parallel := analyticsPhase()
	gates = append(gates,
		latencyGate("topk_p50_us", parallel, 0.50, 50_000, 0),
		gate{name: "analytics_scaling_x", value: quantile(serial, 0.5) / quantile(parallel, 0.5), limit: 1.8,
			samples: analyticsIters, skip: needCPUs(4, "shard-parallel analytics scaling")})

	off, interval, err := walPhase(batches)
	if err != nil {
		return nil, err
	}
	gates = append(gates, gate{name: "wal_overhead_pct", value: (1 - interval/off) * 100, limit: 15,
		atMost: true, samples: walReps})
	return gates, nil
}

// pointReads runs the point-read phase and returns its read latencies in
// µs: one user's estimate, and the anytime total a plain GET /total
// serves. While 65k-edge batches absorb and rotations land, a read should
// stay one atomic load of the published view.
func pointReads(batches [][]streamcard.Edge) (estimate, total []float64) {
	s := buildStack(shards)
	var (
		done    atomic.Bool
		queryWG sync.WaitGroup
		latMu   sync.Mutex
	)

	queryWG.Add(1)
	go func() {
		defer queryWG.Done()
		t := time.NewTicker(rotateEvery)
		defer t.Stop()
		for range t.C {
			if done.Load() {
				return
			}
			s.Rotate()
		}
	}()

	// The ops querier: a monitor scrapes aggregates on wall-clock
	// schedules, not per point query. Its reads are load, not gated.
	queryWG.Add(1)
	go func() {
		defer queryWG.Done()
		var lastTopk, lastNum, lastMerged time.Time
		for !done.Load() {
			now := time.Now()
			switch {
			case now.Sub(lastTopk) >= topkEvery:
				lastTopk = now
				_ = streamcard.TopK(s.Snapshot(), 10)
			case now.Sub(lastNum) >= numusersEvery:
				lastNum = now
				_ = s.NumUsers()
			case now.Sub(lastMerged) >= mergedTotalEvery:
				lastMerged = now
				// The union reading (/total?method=merged), with the
				// server's fallback to the sum on a merge error.
				v := s.Snapshot()
				if _, err := v.TotalDistinctMerged(); err != nil {
					_ = v.TotalDistinct()
				}
			default:
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	interval := time.Duration(float64(pointQueriers) / pointReadsPerSec * float64(time.Second))
	for q := 0; q < pointQueriers; q++ {
		queryWG.Add(1)
		go func(seed uint64) {
			defer queryWG.Done()
			rng := hashing.NewRNG(seed)
			var est, tot []float64
			for i := 0; !done.Load(); i++ {
				t0 := time.Now()
				if i%2 == 0 {
					_ = s.Estimate(uint64(rng.Intn(users) + 1))
					est = append(est, float64(time.Since(t0).Microseconds()))
				} else {
					_ = s.Snapshot().TotalDistinct()
					tot = append(tot, float64(time.Since(t0).Microseconds()))
				}
				time.Sleep(interval)
			}
			latMu.Lock()
			estimate, total = append(estimate, est...), append(total, tot...)
			latMu.Unlock()
		}(uint64(1000 + q))
	}
	// Give the query fleet a beat to spin up before ingest starts.
	time.Sleep(10 * time.Millisecond)

	var next atomic.Int64
	var ingestWG sync.WaitGroup
	deadline := time.Now().Add(pointPhase)
	for w := 0; w < ingesters; w++ {
		ingestWG.Add(1)
		go func() {
			defer ingestWG.Done()
			for time.Now().Before(deadline) {
				s.ObserveBatch(batches[int(next.Add(1)-1)%len(batches)])
			}
		}()
	}
	ingestWG.Wait()
	done.Store(true)
	queryWG.Wait()
	return estimate, total
}

// wireLeg bounds each protocol leg of the wire phase.
const wireLeg = 1500 * time.Millisecond

// wirePhase measures wire-to-sketch ingest for both protocols: each leg
// pre-encodes a slice of the batch pool as request bodies, then decodes
// and absorbs them in a loop against a fresh stack — the work an ingest
// request costs the server after HTTP framing. Text pays a per-edge
// decimal parse and an edges-slice append; CWB1 validates a CRC and hands
// the payload bytes straight to ObserveBatch (zero-copy decode).
func wirePhase(batches [][]streamcard.Edge) (textEPS, binEPS float64, err error) {
	text, err := textBodies(batches)
	if err != nil {
		return 0, 0, err
	}
	binBodies := make([][]byte, len(text))
	for i := range text {
		binBodies[i] = stream.AppendWire(nil, batches[i])
	}
	textEPS, err = wireToSketch(text, func(body []byte) ([]streamcard.Edge, error) {
		return stream.ParseTextBatch(bytes.NewReader(body))
	})
	if err != nil {
		return 0, 0, err
	}
	binEPS, err = wireToSketch(binBodies, stream.DecodeWire)
	return textEPS, binEPS, err
}

// textBodies encodes the first 16 batches as text-protocol request bodies;
// the cap bounds the encoded memory.
func textBodies(batches [][]streamcard.Edge) ([][]byte, error) {
	bodies := make([][]byte, 16)
	for i := range bodies {
		var buf bytes.Buffer
		if err := stream.WriteText(&buf, batches[i]); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

func wireToSketch(bodies [][]byte, decode func([]byte) ([]streamcard.Edge, error)) (float64, error) {
	s := buildStack(shards)
	deadline := time.Now().Add(wireLeg)
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

// Transport phase sizing: frames are small enough that per-request
// overhead — what the phase measures — is a visible fraction of each
// request, and the TCP window matches cardload's default pipelining depth.
// transportReps interleaved repetitions run and the best rep per leg is
// kept, the same noise discipline as walPhase.
const (
	transportLeg        = time.Second
	transportReps       = 3
	transportFrameEdges = 2048
	transportWindow     = 64
)

// transportPhase measures how CWB1 frames reach a real server: identical
// frame payloads are driven into identical server stacks (server.New at
// scalingShards, no WAL — durability is walPhase's subject) once as
// sequential keep-alive HTTP POSTs and once over one CWT1 connection with
// transportWindow pipelined frames in flight. Both acks mean the same
// thing — batch validated and queued on the shard executors — so
// acked-edges-per-second is an apples-to-apples transport number: the HTTP
// leg pays a full request/response round trip per frame, the TCP leg
// streams frames back to back and reads compact acks out of band.
func transportPhase(batches [][]streamcard.Edge) (httpEPS, tcpEPS float64, err error) {
	// Re-slice the pool into transport-sized frames and pre-encode the CWB1
	// bodies both legs share.
	var frames [][]streamcard.Edge
	for _, b := range batches {
		for len(b) >= transportFrameEdges && len(frames) < 64 {
			frames = append(frames, b[:transportFrameEdges])
			b = b[transportFrameEdges:]
		}
	}
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		bodies[i] = stream.AppendWire(nil, f)
	}

	newServer := func() (*server.Server, net.Listener, error) {
		s, err := server.New(server.Config{
			MemoryBits: memoryBits, Shards: scalingShards, Generations: generations, Seed: 1,
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
		deadline := time.Now().Add(transportLeg)
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
		deadline := time.Now().Add(transportLeg)
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

// walLeg bounds each leg-rep of the WAL-overhead phase; walReps
// interleaved repetitions of the two legs are run and the best rep per
// leg kept (see the bottom of walPhase).
const (
	walLeg  = 750 * time.Millisecond
	walReps = 3
)

// walPhase measures what durability costs an ingest request: each leg
// runs the server's per-request cycle — decode a pre-encoded text body
// (the protocol CI's smoke jobs drive), append the batch to a real
// on-disk log, pass the policy's group-commit barrier, absorb — on a
// fresh stack. Two legs: no WAL at all (the request-cost baseline) and the
// interval policy (append is one buffered write(2); fsync rides the
// background group-committer).
//
// The leg has the cardserved pipeline's shape, in miniature: two driver
// goroutines (the server handles requests concurrently) each decode a
// request body, append to the log, pass the commit barrier, and hand the
// batch to an absorber goroutine — because that is where the server runs
// these steps (submit on request goroutines, absorption on the shard
// executors), and the WAL's write and fsync stalls are kernel waits that
// OVERLAP other requests' decode and the executors' absorption there. A
// single-threaded decode-append-absorb loop would charge every page-cache
// writeback stall to the WAL serially and report disk bandwidth, not the
// overhead the deployed ack path actually pays. Decode stays inside the
// loop for the same fidelity: a request pays it before submit either way.
func walPhase(batches [][]streamcard.Edge) (offEPS, intervalEPS float64, err error) {
	bodies, err := textBodies(batches)
	if err != nil {
		return 0, 0, err
	}
	leg := func(logged bool) (float64, error) {
		s := buildStack(shards)
		var w *wal.WAL
		if logged {
			dir, err := os.MkdirTemp("", "querybench-wal-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			w, err = wal.Open(wal.Options{Dir: dir, Fingerprint: []byte("querybench"), Policy: wal.SyncInterval})
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
		var (
			driverWG sync.WaitGroup
			edges    atomic.Int64
			errs     = make(chan error, ingesters)
		)
		deadline := time.Now().Add(walLeg)
		start := time.Now()
		for d := 0; d < ingesters; d++ {
			driverWG.Add(1)
			go func(d int) {
				defer driverWG.Done()
				for i := d; time.Now().Before(deadline); i += ingesters {
					b, err := stream.ParseTextBatch(bytes.NewReader(bodies[i%len(bodies)]))
					if err == nil && w != nil {
						var seq uint64
						if seq, err = w.AppendBatch(b); err == nil {
							err = w.Commit(seq)
						}
					}
					if err != nil {
						errs <- err
						return
					}
					queue <- b
					edges.Add(int64(len(b)))
				}
			}(d)
		}
		driverWG.Wait()
		close(queue)
		absorbWG.Wait() // throughput counts the tail drain, like the server's /flush
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		return float64(edges.Load()) / time.Since(start).Seconds(), nil
	}
	// Interleaved best-of-N: the host's spare CPU varies on the scale of a
	// leg, and a slow slice landing on one leg would masquerade as WAL
	// overhead (or hide it). Each rep runs both legs back to back and the
	// best rep per leg is kept — the standard way to measure cost, not
	// contention.
	for rep := 0; rep < walReps; rep++ {
		off, err := leg(false)
		if err != nil {
			return 0, 0, err
		}
		interval, err := leg(true)
		if err != nil {
			return 0, 0, err
		}
		offEPS = math.Max(offEPS, off)
		intervalEPS = math.Max(intervalEPS, interval)
	}
	return offEPS, intervalEPS, nil
}

// scalingLeg bounds each leg of the ingest-scaling phase.
const scalingLeg = 1500 * time.Millisecond

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
func ingestScalingPhase(batches [][]streamcard.Edge) (serialEPS, parEPS float64) {
	// Serial leg.
	s := buildStack(scalingShards)
	part := stream.NewPartitioner(scalingShards, s.ShardIndex)
	deadline := time.Now().Add(scalingLeg)
	start := time.Now()
	var edges int64
	for i := 0; time.Now().Before(deadline); i++ {
		src := batches[i%len(batches)]
		b := part.Split(src)
		for t := 0; t < scalingShards; t++ {
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
	s = buildStack(scalingShards)
	part = stream.NewPartitioner(scalingShards, s.ShardIndex)
	queues := make([]chan scaleItem, scalingShards)
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
	deadline = time.Now().Add(scalingLeg)
	start = time.Now()
	edges = 0
	for i := 0; time.Now().Before(deadline); i++ {
		src := batches[i%len(batches)]
		b := &scaleBatch{part: part.Split(src)}
		touched := 0
		for t := 0; t < scalingShards; t++ {
			if len(b.part.Shard(t)) > 0 {
				touched++
			}
		}
		if touched == 0 {
			b.part.Release()
			continue
		}
		b.remaining.Store(int32(touched))
		for t := 0; t < scalingShards; t++ {
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

func buildStack(n int) *streamcard.Sharded {
	return streamcard.NewSharded(n, func(int) streamcard.Estimator {
		return streamcard.NewWindowed(func() streamcard.Estimator {
			return streamcard.NewFreeRS(memoryBits/n, streamcard.WithSeed(1))
		}, streamcard.WithGenerations(generations))
	})
}

// Analytics phase sizing: 20 iterations per leg, each on a freshly
// written view, and a serving-realistic k.
const (
	analyticsUsers = 120_000
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

// RangeUsers keeps the serial leg on the shards' unordered enumeration, as
// the parallel path is; without it TopKSerial would fall back to the sorted
// Users scan, slowing the serial leg and flattering the scaling ratio.
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

// analyticsPhase times top-k, serial versus shard-parallel, on a stack
// holding analyticsUsers users spread across the live generations, and
// returns both legs' latencies in µs. Each timed iteration runs on a
// freshly written view: a one-edge write lands in every shard first, as
// in serving, where nearly every write publishes a new view between two
// reads. The writes move only the current generation, so the serial leg's
// first read builds each shard's fold of the sealed generations and every
// later read of the epoch, in both legs, streams against it: the legs time
// the per-read walk, and the one fold build lands in the serial leg's
// first sample, which its median over 20 samples ranks past.
func analyticsPhase() (serial, parallel []float64) {
	s := buildStack(scalingShards)

	// Fill: every user observed with 1..4 items, split across the window's
	// generations so the folds sum several live sketches per shard.
	rng := hashing.NewRNG(9)
	fills := generations - 1
	batch := make([]streamcard.Edge, 0, 1<<16)
	flush := func() {
		if len(batch) > 0 {
			s.ObserveBatch(batch)
			batch = batch[:0]
		}
	}
	for g := 0; g < fills; g++ {
		for u := g; u < analyticsUsers; u += fills {
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

	// One resident user per shard, so a round of touch writes lands in every
	// shard and the next snapshot publishes a new view of each.
	touch := make([]uint64, 0, scalingShards)
	seen := make(map[int]bool, scalingShards)
	for u := uint64(1); len(touch) < scalingShards && u <= analyticsUsers; u++ {
		if i := s.ShardIndex(u); !seen[i] {
			seen[i] = true
			touch = append(touch, u)
		}
	}
	leg := func(topk func(v *streamcard.ShardedView)) []float64 {
		lat := make([]float64, 0, analyticsIters)
		for i := 0; i < analyticsIters; i++ {
			for _, u := range touch {
				s.Observe(u, rng.Uint64())
			}
			v := s.Snapshot()
			t0 := time.Now()
			topk(v)
			lat = append(lat, float64(time.Since(t0).Microseconds()))
		}
		return lat
	}
	serial = leg(func(v *streamcard.ShardedView) { streamcard.TopKSerial(serialView{v}, analyticsK) })
	parallel = leg(func(v *streamcard.ShardedView) { v.TopK(analyticsK) })
	return serial, parallel
}

// makeBatches pre-generates a bursty stream of poolEdges edges sliced into
// batchEdges-sized chunks, so the measured phases do no generation work.
func makeBatches() [][]streamcard.Edge {
	rng := hashing.NewRNG(1)
	all := make([]streamcard.Edge, 0, poolEdges)
	for len(all) < poolEdges {
		u := uint64(rng.Intn(users) + 1)
		run := rng.Intn(8) + 1
		for r := 0; r < run && len(all) < poolEdges; r++ {
			all = append(all, streamcard.Edge{User: u, Item: rng.Uint64()})
		}
	}
	var batches [][]streamcard.Edge
	for i := 0; i < len(all); i += batchEdges {
		batches = append(batches, all[i:min(i+batchEdges, len(all))])
	}
	return batches
}

func warmup(s *streamcard.Sharded, batches [][]streamcard.Edge) {
	for _, b := range batches[:16] {
		s.ObserveBatch(b)
	}
	_ = s.Snapshot()
	_ = s.Estimate(1)
}
