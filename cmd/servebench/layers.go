package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	streamcard "repro"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Replay sizes: enough frames for a commit p99 (1024 samples) without
// holding more than a few tens of MB of input.
const (
	replayMaxEdges   = 2 << 20
	replayMaxFrames  = 2048
	replayCommits    = 1024
	replayArmedEdges = 1 << 18 // armed absorbs copy whole arrays per call
)

// layerReplay replays the workload's seeded input in-process, sequentially,
// through each layer's public call on a stack built by server.New with the
// workload's configuration, and times each call on its own: the
// single-threaded baseline the daemon's per-edge CPU is compared against.
// armed says whether the traced daemon had armed snapshot publication by
// the end of its window (see snapshotReads).
func layerReplay(wl *workload, seed uint64, dir string, smoke, armed bool) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string, n int) { m[name] = metric{v, unit, n} }

	nFrames := min(replayMaxFrames, replayMaxEdges/wl.frameEdges)
	commits := replayCommits
	if smoke {
		nFrames, commits = 64, 64
	}
	g := newGen(seed, tagLoad, wl.users, 0, dup())
	wire := make([][]byte, nFrames)
	batches := make([][]stream.Edge, nFrames)
	tmp := make([]stream.Edge, wl.frameEdges)
	for i := range wire {
		g.fill(tmp)
		wire[i] = stream.AppendWire(nil, tmp)
	}
	edges := nFrames * wl.frameEdges

	t0 := time.Now()
	for i, w := range wire {
		b, err := stream.DecodeWire(w)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	set("stream.decode_ns_per_edge", nsPer(time.Since(t0), edges), "ns", edges)

	cfg := server.Config{Method: "freers", MemoryBits: 1 << 26, Shards: 4, Generations: 4, Seed: 1,
		SpoolDir: filepath.Join(dir, "spool")}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	sh := srv.Estimator()

	// Partition once, timed; keep private copies of the shard sub-batches
	// for the absorb legs (the partition buffers are pooled).
	part := stream.NewPartitioner(cfg.Shards, sh.ShardIndex)
	subs := make([][][]stream.Edge, nFrames)
	var split time.Duration
	for i, b := range batches {
		t0 := time.Now()
		p := part.Split(b)
		split += time.Since(t0)
		subs[i] = make([][]stream.Edge, cfg.Shards)
		for s := range subs[i] {
			subs[i][s] = append([]stream.Edge(nil), p.Shard(s)...)
		}
		p.Release()
	}
	set("stream.partition_ns_per_edge", nsPer(split, edges), "ns", edges)

	if err := walLayer(m, wl, batches, commits, filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}

	// The bare estimator, fed the same per-shard sub-streams.
	bare := make([]*streamcard.FreeRS, cfg.Shards)
	for s := range bare {
		bare[s] = streamcard.NewFreeRS(cfg.MemoryBits/cfg.Shards, streamcard.WithSeed(cfg.Seed))
	}
	var observe time.Duration
	for _, ss := range subs {
		for s, sub := range ss {
			t0 := time.Now()
			bare[s].ObserveBatch(sub)
			observe += time.Since(t0)
		}
	}
	bare = nil // its 32 MB of registers are garbage before the absorb legs allocate theirs
	set("core.observe_ns_per_edge", nsPer(observe, edges), "ns", edges)

	// Absorb through the served stack, unarmed, rotating at the workload's
	// epoch cadence; the armed prefix's allocations are the baseline the
	// armed leg's copy-on-write bytes are measured against.
	armedFrames := min(nFrames, max(1, replayArmedEdges/wl.frameEdges))
	var absorb time.Duration
	var rotations []float64
	var allocPrefix uint64
	sinceRotate := 0
	alloc0 := totalAlloc()
	for i, ss := range subs {
		t0 := time.Now()
		for s, sub := range ss {
			sh.ObserveShardBatch(s, sub)
		}
		absorb += time.Since(t0)
		if i == armedFrames-1 {
			allocPrefix = totalAlloc() - alloc0
		}
		if sinceRotate += wl.frameEdges; wl.epochEdges > 0 && sinceRotate >= wl.epochEdges {
			sinceRotate = 0
			rotations = append(rotations, timeMs(sh.Rotate))
		}
	}
	set("streamcard.absorb_ns_per_edge", nsPer(absorb, edges), "ns", edges)

	twin, err := server.New(server.Config{Method: cfg.Method, MemoryBits: cfg.MemoryBits,
		Shards: cfg.Shards, Generations: cfg.Generations, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ash := twin.Estimator()
	ash.Snapshot()
	var armedAbsorb, snap time.Duration
	alloc0 = totalAlloc()
	for _, ss := range subs[:armedFrames] {
		t0 := time.Now()
		for s, sub := range ss {
			ash.ObserveShardBatch(s, sub)
		}
		armedAbsorb += time.Since(t0)
		t0 = time.Now()
		ash.Snapshot()
		snap += time.Since(t0)
	}
	allocArmed := totalAlloc() - alloc0
	twin.Close()
	armedEdges := armedFrames * wl.frameEdges
	set("streamcard.absorb_armed_ns_per_edge", nsPer(armedAbsorb, armedEdges), "ns", armedEdges)
	set("streamcard.snapshot_ns", float64(snap.Nanoseconds())/float64(armedFrames), "ns", armedFrames)
	// The daemon paid the armed leg's extra bytes only if it was armed: an
	// unarmed stack publishes nothing, so its absorbs copy nothing.
	cow := 0.0
	if armed && allocArmed > allocPrefix {
		cow = float64(allocArmed-allocPrefix) / float64(armedEdges)
	}
	set("streamcard.cow_bytes_per_edge", cow, "B", armedEdges)

	// Reads on the fully loaded stack.
	v := sh.Snapshot()
	lookups := 0
	t0 = time.Now()
	for _, b := range batches {
		for _, e := range b[:min(len(b), 64)] {
			v.Estimate(e.User)
			lookups++
		}
	}
	set("streamcard.estimate_ns", nsPer(time.Since(t0), lookups), "ns", lookups)

	var cold, cached []float64
	for i := 0; i < 5; i++ {
		for s, sub := range subs[i%nFrames] { // a write publishes a new view: its folds start cold
			sh.ObserveShardBatch(s, sub)
		}
		v := sh.Snapshot()
		cold = append(cold, timeMs(func() { streamcard.TopK(v, 100) }))
		cached = append(cached, timeMs(func() { streamcard.TopK(v, 100) }))
	}
	set("streamcard.topk_cold_ms", median(cold), "ms", len(cold))
	set("streamcard.topk_cached_ms", median(cached), "ms", len(cached))

	var ckpt []float64
	for i := 0; i < 3; i++ {
		var err error
		ckpt = append(ckpt, timeMs(func() { err = srv.Checkpoint() }))
		if err != nil {
			return nil, err
		}
	}
	fi, err := os.Stat(filepath.Join(cfg.SpoolDir, "current.ckpt"))
	if err != nil {
		return nil, err
	}
	set("server.checkpoint_ms", median(ckpt), "ms", len(ckpt))
	set("server.checkpoint_bytes", float64(fi.Size()), "B", 1)

	for len(rotations) < 3 {
		rotations = append(rotations, timeMs(sh.Rotate))
	}
	set("streamcard.rotate_ms", median(rotations), "ms", len(rotations))
	return m, nil
}

// walLayer times the log on its own: AppendBatch per frame and Commit under
// the workload's fsync policy (cycling the frames until there are enough
// commits for a p99), then reopening the log and replaying it.
func walLayer(m map[string]metric, wl *workload, batches [][]stream.Edge, commits int, dir string) error {
	policy, err := wal.ParsePolicy(wl.walSync)
	if err != nil {
		return err
	}
	opts := wal.Options{Dir: dir, Fingerprint: []byte("servebench"), Policy: policy}
	w, err := wal.Open(opts)
	if err != nil {
		return err
	}
	var appendT time.Duration
	var commitUs []float64
	appended := 0
	for i := 0; i < commits; i++ {
		b := batches[i%len(batches)]
		t0 := time.Now()
		seq, err := w.AppendBatch(b)
		t1 := time.Now()
		if err == nil {
			err = w.Commit(seq)
		}
		if err != nil {
			w.Close()
			return err
		}
		appendT += t1.Sub(t0)
		commitUs = append(commitUs, float64(time.Since(t1).Nanoseconds())/1e3)
		appended += len(b)
	}
	if err := w.Close(); err != nil {
		return err
	}
	m["wal.append_ns_per_edge"] = metric{nsPer(appendT, appended), "ns", appended}
	p50, _ := quantile(commitUs, 0.5, 1)
	p99, _ := quantile(commitUs, 0.99, 1)
	m["wal.commit_p50_us"] = metric{p50, "us", len(commitUs)}
	m["wal.commit_p99_us"] = metric{p99, "us", len(commitUs)}

	t0 := time.Now()
	w, err = wal.Open(opts)
	if err != nil {
		return err
	}
	replayed := 0
	err = w.Replay(0, func(rec wal.Record) error {
		replayed += len(rec.Edges)
		return nil
	})
	took := time.Since(t0)
	w.Close()
	if err != nil {
		return err
	}
	if replayed != appended {
		return fmt.Errorf("wal replay returned %d edges, appended %d", replayed, appended)
	}
	m["wal.replay_ns_per_edge"] = metric{nsPer(took, replayed), "ns", replayed}
	return nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
