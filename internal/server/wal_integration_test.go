package server

// The WAL's server-level contract: a crash (a server abandoned without
// Close) replays to bit-identical state — serialized bytes, not just
// estimates — on top of whatever checkpoint existed; checkpoints truncate
// the log so disk stays bounded; the observability surface (/metrics
// gauges and counters, POST /flush as a durability barrier) behaves; and
// the WAL-off hot path pays nothing for the feature's existence.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func walConfig(spool, walDir string) Config {
	cfg := testConfig(spool)
	cfg.WALDir = walDir
	cfg.WALSync = "never" // tests force syncs explicitly; policy is orthogonal
	return cfg
}

// shardStates serializes every shard's full windowed state.
func shardStates(t *testing.T, s *Server) [][]byte {
	t.Helper()
	out := make([][]byte, len(s.wins))
	for i, w := range s.wins {
		b, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		out[i] = b
	}
	return out
}

// metricValue scans a /metrics body for an unlabeled series value.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from:\n%s", name, body)
	return 0
}

// TestServerWALCrashReplayBitIdentical is the crash-sim half of the
// SIGKILL story (the cmd/cardserved e2e test kills a real process): a
// server with a WAL takes a schedule of batches, rotations, and one
// mid-stream checkpoint, then is ABANDONED — no Close, no final
// checkpoint, exactly what kill -9 leaves behind. A second server opening
// the same directories must restore the checkpoint, replay the log tail,
// and land on byte-identical serialized shard state — same registers,
// same generations, same epoch — as an uninterrupted twin that absorbed
// the identical schedule. Runs under -race in CI.
func TestServerWALCrashReplayBitIdentical(t *testing.T) {
	spool, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(spool, walDir)
	cfg.WALSegmentBytes = 8 << 10 // several roll-overs within the schedule
	crash, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the executors, committer, and open segment file are simply
	// abandoned, as a kill would leave them.

	twin, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	edges := zipfEdges(41, 30000, 250, 2000)
	const batch = 700
	for i, n := 0, 0; i < len(edges); i, n = i+batch, n+1 {
		end := i + batch
		if end > len(edges) {
			end = len(edges)
		}
		chunk := edges[i:end]
		if err := crash.submit(chunk, true); err != nil {
			t.Fatal(err)
		}
		if err := twin.submit(chunk, true); err != nil {
			t.Fatal(err)
		}
		if n%5 == 4 { // rotations mid-stream, same schedule on both
			crash.rotate()
			twin.rotate()
		}
		if n == 17 { // a checkpoint mid-stream: replay must start ABOVE it
			if err := crash.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if !restored.Restored() {
		t.Fatal("restart did not restore the mid-stream checkpoint")
	}
	if recs, replayedEdges := restored.WALReplayed(); recs == 0 || replayedEdges == 0 {
		t.Fatalf("restart replayed %d records / %d edges; the post-checkpoint tail is missing", recs, replayedEdges)
	}
	if restored.Epoch() != twin.Epoch() {
		t.Fatalf("epoch %d after replay, twin at %d", restored.Epoch(), twin.Epoch())
	}
	got, want := shardStates(t, restored), shardStates(t, twin)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %d serialized state diverged after crash replay (%d vs %d bytes)",
				i, len(got[i]), len(want[i]))
		}
	}
	// Counters are process-local (the checkpoint carries sketch state, not
	// metrics), so the fresh process accounts exactly the replayed tail.
	recs, replayedEdges := restored.WALReplayed()
	if recs == 0 || restored.edgesIngested.Value() != uint64(replayedEdges) {
		t.Fatalf("restored server accounts %d edges, replay reported %d",
			restored.edgesIngested.Value(), replayedEdges)
	}
	more := zipfEdges(43, 2000, 50, 100)
	if err := restored.submit(more, true); err != nil {
		t.Fatal(err)
	}
	if err := twin.submit(more, true); err != nil {
		t.Fatal(err)
	}
	got, want = shardStates(t, restored), shardStates(t, twin)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %d diverged on post-replay ingest", i)
		}
	}
}

// TestServerWALDoubleCrashReplay: a second crash WITHOUT any intervening
// checkpoint replays the same log again — replay must be idempotent from
// the checkpoint's fixed position, not consume the log.
func TestServerWALDoubleCrashReplay(t *testing.T) {
	spool, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(spool, walDir)
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := zipfEdges(47, 5000, 100, 500)
	if err := first.submit(edges, true); err != nil {
		t.Fatal(err)
	}
	first.rotate()
	// Crash #1: abandoned. Crash #2: open, verify, abandon again.
	for round := 0; round < 2; round++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		if recs, _ := s.WALReplayed(); recs != 2 { // 1 batch + 1 rotation
			t.Fatalf("restart %d replayed %d records, want 2", round, recs)
		}
		if s.Epoch() != 1 || s.edgesIngested.Value() != uint64(len(edges)) {
			t.Fatalf("restart %d: epoch %d, %d edges", round, s.Epoch(), s.edgesIngested.Value())
		}
	}
}

// TestServerWALCheckpointTruncatesLog pins checkpoint-as-truncation-point:
// across repeated ingest+checkpoint cycles the WAL directory stays at a
// bounded segment count and byte size, and the truncation counter moves.
func TestServerWALCheckpointTruncatesLog(t *testing.T) {
	spool, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(spool, walDir)
	cfg.WALSegmentBytes = 4 << 10
	s, ts := newTestServer(t, cfg)

	walBytesOnDisk := func() (files int, bytes int64) {
		entries, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			fi, err := os.Stat(filepath.Join(walDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files++
			bytes += fi.Size()
		}
		return
	}
	for cycle := 0; cycle < 12; cycle++ {
		for b := 0; b < 6; b++ {
			if err := s.submit(zipfEdges(uint64(100+cycle*10+b), 800, 60, 300), true); err != nil {
				t.Fatal(err)
			}
		}
		if cycle%3 == 2 {
			s.rotate()
		}
		if code, body := post(t, ts.URL+"/checkpoint", ""); code != 200 {
			t.Fatalf("checkpoint cycle %d: %d %s", cycle, code, body)
		}
		files, size := walBytesOnDisk()
		// Every cycle writes several 4 KiB segments; after each checkpoint
		// only the fresh active segment (and at most one boundary segment)
		// may survive.
		if files > 2 || size > 2*int64(cfg.WALSegmentBytes) {
			t.Fatalf("cycle %d: %d WAL files, %d bytes on disk after checkpoint", cycle, files, size)
		}
	}
	_, body := get(t, ts.URL+"/metrics")
	if metricValue(t, body, "cardserved_wal_segments_truncated_total") == 0 {
		t.Fatal("truncation counter never moved across checkpoint cycles")
	}
	if v := metricValue(t, body, "cardserved_wal_segment_count"); v > 2 {
		t.Fatalf("segment count gauge reads %v after truncation", v)
	}
}

// TestServerWALMetricsAndFlushBarrier: the WAL observability surface —
// append counters move with ingest, unsynced bytes accumulate under a
// never-sync policy, and POST /flush forces the group-commit fsync that
// drops the unsynced gauge to exactly 0 and records a histogram sample.
func TestServerWALMetricsAndFlushBarrier(t *testing.T) {
	s, ts := newTestServer(t, walConfig(t.TempDir(), t.TempDir()))
	ingest(t, ts.URL, zipfEdges(51, 3000, 80, 400), true)

	_, body := get(t, ts.URL+"/metrics")
	if metricValue(t, body, "cardserved_wal_records_appended_total") == 0 {
		t.Fatalf("append counter flat after ingest:\n%s", body)
	}
	if metricValue(t, body, "cardserved_wal_bytes_written_total") == 0 {
		t.Fatal("byte counter flat after ingest")
	}
	if metricValue(t, body, "cardserved_wal_unsynced_bytes") == 0 {
		t.Fatal("no unsynced bytes under the never policy before /flush")
	}
	if code, _ := post(t, ts.URL+"/flush", ""); code != 200 {
		t.Fatal("flush failed")
	}
	_, body = get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, "cardserved_wal_unsynced_bytes"); v != 0 {
		t.Fatalf("unsynced gauge reads %v after /flush, want 0", v)
	}
	if !strings.Contains(body, "cardserved_wal_fsync_seconds") {
		t.Fatalf("fsync histogram missing from /metrics:\n%s", body)
	}
	_ = s
}

// TestServerHealthzReportsLatchedWAL: once the WAL latches an error every
// ingest is refused, so /healthz must stop saying ok: it answers 503 and
// names the latched error.
func TestServerHealthzReportsLatchedWAL(t *testing.T) {
	s, ts := newTestServer(t, walConfig(t.TempDir(), t.TempDir()))
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz on a healthy WAL server: %d %s", code, body)
	}
	if err := s.wal.Close(); err != nil { // latches "wal: closed"
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/ingest", "1 2\n"); code != 500 {
		t.Fatalf("ingest after the WAL latched: %d %s, want 500", code, body)
	}
	code, body := get(t, ts.URL+"/healthz")
	if code != 503 || !strings.Contains(body, `"status":"wal failed"`) || !strings.Contains(body, "wal: closed") {
		t.Fatalf("healthz with a latched WAL: %d %s, want 503 naming the error", code, body)
	}
}

// TestServerWALFingerprintMismatch: a WAL written under one configuration
// refuses to start under another — replaying those records into sketches
// of a different shape would silently corrupt every later answer.
func TestServerWALFingerprintMismatch(t *testing.T) {
	walDir := t.TempDir()
	cfg := walConfig("", walDir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.submit(zipfEdges(53, 100, 10, 50), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 99
	if _, err := New(cfg2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("differently seeded server opened the WAL: err = %v", err)
	}
}

// TestServerWALOffHotPathAllocs is the acceptance benchmark-assertion for
// "WAL off costs nothing": the full submit path (partition, fan-out,
// absorb, wait) on a warmed-up server stays at its tiny pre-WAL
// allocation count. The WAL branch is a nil check — taking it can
// allocate nothing — so a regression here means the hot path itself
// changed, not the WAL. (With the WAL ON the same path additionally pays
// the log append; that cost is measured and gated by cmd/querybench's
// WAL-overhead phase, not here.)
func TestServerWALOffHotPathAllocs(t *testing.T) {
	s, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	edges := zipfEdges(57, 2000, 40, 200)
	// Warm up: absorb the same edges until the sketches and the user table
	// stop growing, so steady-state runs measure the pipeline, not sketch
	// resizing.
	for i := 0; i < 50; i++ {
		if err := s.submit(edges, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.submit(edges, true); err != nil {
			t.Fatal(err)
		}
	})
	// Today's steady-state path costs a handful of allocations (the batch
	// tracker, the waiter channel; nothing arms publication here, so the
	// absorb publishes nothing); the bound has headroom for noise but fails
	// loudly if the WAL-off path ever grows a per-batch buffer or log hop.
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Fatalf("WAL-off submit allocates %.1f/op, want <= %d", allocs, maxAllocs)
	}
}

// TestServerWALSyncAlwaysPolicy: end-to-end under the paranoid policy —
// every acked batch is already fsynced, so the unsynced gauge reads 0
// without any flush, and ingest through HTTP still works on both
// protocols.
func TestServerWALSyncAlwaysPolicy(t *testing.T) {
	cfg := walConfig(t.TempDir(), t.TempDir())
	cfg.WALSync = "always"
	s, ts := newTestServer(t, cfg)
	ingest(t, ts.URL, zipfEdges(59, 1000, 30, 100), true)
	if got := s.wal.UnsyncedBytes(); got != 0 {
		t.Fatalf("%d unsynced bytes after an acked batch under always", got)
	}
	_, body := get(t, ts.URL+"/metrics")
	if metricValue(t, body, "cardserved_wal_unsynced_bytes") != 0 {
		t.Fatal("unsynced gauge nonzero under always policy")
	}
}

// TestServerWALConfigValidation: bad WAL flag values are construction
// errors, not latent runtime surprises.
func TestServerWALConfigValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := testConfig(""); c.WALSync = "sometimes"; return c }(),
		func() Config { c := testConfig(""); c.WALFlushInterval = -time.Second; return c }(),
		func() Config { c := testConfig(""); c.WALSegmentBytes = -1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	// And the flag values all parse.
	for _, p := range []string{"", "always", "interval", "never"} {
		c := testConfig("")
		c.WALDir = t.TempDir()
		c.WALSync = p
		s, err := New(c)
		if err != nil {
			t.Fatalf("policy %q: %v", p, err)
		}
		s.Close()
	}
}

// TestServerTortureWithWAL re-runs the pipeline's -race acceptance storm
// with the WAL in the loop: concurrent submitters on both protocols,
// rotations, checkpoints (now quiesce cuts + truncations), a query storm —
// then exact accounting, and a crash-replay of whatever the storm logged.
func TestServerTortureWithWAL(t *testing.T) {
	spool, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(spool, walDir)
	cfg.WALSync = "interval"
	cfg.WALFlushInterval = 2 * time.Millisecond
	cfg.WALSegmentBytes = 32 << 10
	s, ts := newTestServer(t, cfg)
	const (
		clients = 4
		batches = 15
		perB    = 300
	)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			base := uint64(c) << 32
			for b := 0; b < batches; b++ {
				edges := make([]stream.Edge, perB)
				for i := range edges {
					edges[i] = stream.Edge{User: base | uint64(i%30), Item: uint64(b*perB + i)}
				}
				if err := s.submit(edges, b%2 == 0); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/checkpoint", "")
		post(t, ts.URL+"/rotate", "")
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := post(t, ts.URL+"/flush", ""); code != 200 {
		t.Fatal("flush failed")
	}
	if got := s.edgesIngested.Value(); got != clients*batches*perB {
		t.Fatalf("ingested %d edges, want %d", got, clients*batches*perB)
	}
	// Close cleanly (final checkpoint + truncation), then restart: nothing
	// to replay, state intact.
	epoch := s.Epoch()
	total := s.edgesIngested.Value()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if recs, _ := s2.WALReplayed(); recs != 0 {
		t.Fatalf("clean shutdown left %d WAL records to replay", recs)
	}
	if s2.Epoch() != epoch {
		t.Fatalf("epoch %d after clean restart, want %d", s2.Epoch(), epoch)
	}
	_ = total
}
