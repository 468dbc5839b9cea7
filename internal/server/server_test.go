package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// testConfig is a small, fast stack: 4 shards of FreeRS, 4 generations,
// shared seed, manual rotation unless a test opts in to timers.
func testConfig(spool string) Config {
	return Config{
		Method:      "freers",
		MemoryBits:  1 << 20,
		Shards:      4,
		Generations: 4,
		Seed:        7,
		SpoolDir:    spool,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// edgeLines renders edges in the ingest line protocol.
func edgeLines(edges []stream.Edge) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e.User, e.Item)
	}
	return sb.String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func ingest(t *testing.T, base string, edges []stream.Edge, wait bool) {
	t.Helper()
	url := base + "/ingest"
	if wait {
		url += "?wait=1"
	}
	code, body := post(t, url, edgeLines(edges))
	wantCode := http.StatusAccepted
	if wait {
		wantCode = http.StatusOK
	}
	if code != wantCode {
		t.Fatalf("ingest returned %d: %s", code, body)
	}
}

// zipfEdges synthesizes a heavy-tailed workload: user u's cardinality is
// ~maxCard/(u+1), so the stream has a few heavy users and a long tail —
// the shape the estimators are built for.
func zipfEdges(seed uint64, n, users, maxCard int) []stream.Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		u := rng.Intn(users)
		card := maxCard / (u + 1)
		if card < 1 {
			card = 1
		}
		edges[i] = stream.Edge{User: uint64(u), Item: uint64(rng.Intn(card))}
	}
	return edges
}

func jsonNumber(t *testing.T, body, field string) float64 {
	t.Helper()
	idx := strings.Index(body, `"`+field+`":`)
	if idx < 0 {
		t.Fatalf("field %q missing in %s", field, body)
	}
	rest := body[idx+len(field)+3:]
	end := strings.IndexAny(rest, ",}")
	if end < 0 {
		t.Fatalf("unterminated field %q in %s", field, body)
	}
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(rest[:end]), "%g", &v); err != nil {
		t.Fatalf("field %q not a number in %s: %v", field, body, err)
	}
	return v
}

// TestServerEndToEnd: ingest a batched workload over HTTP (with one epoch
// rotation in the middle), then check /estimate, /total, /topk, /users
// against exact ground truth within the tolerances the integration suite
// uses elsewhere.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, testConfig(""))
	edges := zipfEdges(3, 120000, 400, 4000)
	truth := exact.NewTracker()
	for _, e := range edges {
		truth.Observe(e.User, e.Item)
	}

	// Whole-stream accuracy is checked against whole-stream ground truth,
	// so no rotation yet: this workload redraws items uniformly, and a
	// mid-stream epoch boundary would legitimately re-count pairs observed
	// on both sides of it (the window's documented 1/(k−1) slop).
	const batch = 10000
	for i := 0; i < len(edges); i += batch {
		end := i + batch
		if end > len(edges) {
			end = len(edges)
		}
		ingest(t, ts.URL, edges[i:end], true)
	}

	// Per-user estimates on the heavy users.
	bad := 0
	checked := 0
	truth.Users(func(u uint64, card int) {
		if card < 100 {
			return
		}
		checked++
		code, body := get(t, fmt.Sprintf("%s/estimate?user=%d", ts.URL, u))
		if code != http.StatusOK {
			t.Fatalf("estimate returned %d: %s", code, body)
		}
		est := jsonNumber(t, body, "estimate")
		if math.Abs(est-float64(card)) > 0.3*float64(card) {
			bad++
		}
	})
	if checked < 10 {
		t.Fatalf("workload produced only %d heavy users", checked)
	}
	if bad > checked/5 {
		t.Fatalf("%d of %d heavy users estimated outside 30%%", bad, checked)
	}

	// Default total: the O(1) summed reading.
	code, body := get(t, ts.URL+"/total")
	if code != http.StatusOK {
		t.Fatalf("total returned %d: %s", code, body)
	}
	if !strings.Contains(body, `"method":"summed"`) {
		t.Fatalf("plain /total should serve the summed reading: %s", body)
	}
	want := float64(truth.TotalCardinality())
	if total := jsonNumber(t, body, "total"); math.Abs(total-want) > 0.15*want {
		t.Fatalf("summed total %v, truth %v", total, want)
	}

	// Merged total on request.
	code, body = get(t, ts.URL+"/total?method=merged")
	if code != http.StatusOK {
		t.Fatalf("total?method=merged returned %d: %s", code, body)
	}
	if !strings.Contains(body, `"method":"merged"`) {
		t.Fatalf("shared-seed shards did not merge: %s", body)
	}
	if total := jsonNumber(t, body, "total"); math.Abs(total-want) > 0.15*want {
		t.Fatalf("merged total %v, truth %v", total, want)
	}

	// Unknown method is refused.
	if code, body = get(t, ts.URL+"/total?method=nope"); code != http.StatusBadRequest {
		t.Fatalf("total?method=nope returned %d: %s", code, body)
	}

	// User count is exact for FreeRS (every observed user has an entry).
	_, body = get(t, ts.URL+"/users")
	if got := int(jsonNumber(t, body, "count")); got != truth.NumUsers() {
		t.Fatalf("users count %d, truth %d", got, truth.NumUsers())
	}

	// TopK: user 0 has the largest cardinality by construction.
	code, body = get(t, ts.URL+"/topk?k=3")
	if code != http.StatusOK {
		t.Fatalf("topk returned %d: %s", code, body)
	}
	if !strings.Contains(body, `"user":0`) {
		t.Fatalf("top-3 misses the heaviest user: %s", body)
	}

	// Now advance an epoch and confirm the time side is alive end to end.
	if code, body := post(t, ts.URL+"/rotate", ""); code != http.StatusOK {
		t.Fatalf("rotate returned %d: %s", code, body)
	}

	// Health and metrics reflect the traffic.
	_, body = get(t, ts.URL+"/healthz")
	if !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"epoch":1`) {
		t.Fatalf("healthz: %s", body)
	}
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("cardserved_edges_ingested_total %d", len(edges)),
		"cardserved_batches_total 12",
		"cardserved_rotations_total 1",
		`cardserved_shard_user_entries{shard="0"}`,
		`cardserved_http_request_seconds_bucket{handler="/ingest",le="+Inf"} 12`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServerMalformedBatchAtomicallyRefused pins the documented policy: a
// batch with any bad line is rejected with 400 and NOTHING from it is
// ingested — the valid lines do not land either.
func TestServerMalformedBatchAtomicallyRefused(t *testing.T) {
	_, ts := newTestServer(t, testConfig(""))
	code, body := post(t, ts.URL+"/ingest?wait=1", "1 100\n2 200\nnot-a-user 300\n3 300\n")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed batch returned %d: %s", code, body)
	}
	if !strings.Contains(body, "nothing ingested") {
		t.Fatalf("rejection does not state atomic refusal: %s", body)
	}
	if _, users := get(t, ts.URL+"/users"); jsonNumber(t, users, "count") != 0 {
		t.Fatalf("edges leaked from a refused batch: %s", users)
	}
	// The corrected batch goes through.
	if code, _ := post(t, ts.URL+"/ingest?wait=1", "1 100\n2 200\n3 300\n"); code != http.StatusOK {
		t.Fatalf("corrected batch returned %d", code)
	}
	if _, users := get(t, ts.URL+"/users"); jsonNumber(t, users, "count") != 3 {
		t.Fatalf("corrected batch not ingested: %s", users)
	}
	// Comments and blank lines are protocol, not errors.
	if code, _ := post(t, ts.URL+"/ingest?wait=1", "# header\n\n4 100\n"); code != http.StatusOK {
		t.Fatalf("comment lines refused")
	}
	// Extra columns are malformed too — the service must never silently
	// truncate "user item count" rows to bare pairs.
	if code, body := post(t, ts.URL+"/ingest?wait=1", "5 100 7\n"); code != http.StatusBadRequest {
		t.Fatalf("three-field line returned %d: %s", code, body)
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"method": {Method: "nope"},
		"gens":   {Generations: 1},
		"queue":  {QueueDepth: -1},
		"body":   {MaxBodyBytes: -1},
		// More generations than a window checkpoint can hold: the service
		// would run, but every checkpoint, the final one included, would fail.
		"gens above the checkpoint bound": {Generations: core.MaxWindowGenerations + 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad %s accepted", name)
		}
	}
}

func TestServerBadQueries(t *testing.T) {
	_, ts := newTestServer(t, testConfig(""))
	for path, want := range map[string]int{
		"/estimate":          http.StatusBadRequest, // no user
		"/estimate?user=abc": http.StatusBadRequest,
		"/topk?k=0":          http.StatusBadRequest,
		"/topk?k=x":          http.StatusBadRequest,
		"/nosuch":            http.StatusNotFound,
	} {
		if code, body := get(t, ts.URL+path); code != want {
			t.Fatalf("%s returned %d (want %d): %s", path, code, want, body)
		}
	}
	// String keys hash through streamcard.Key.
	if code, _ := get(t, ts.URL+"/estimate?key=10.0.0.7"); code != http.StatusOK {
		t.Fatalf("key= lookup failed")
	}
}

// TestServerGracefulShutdownBitIdenticalRestore is the acceptance e2e:
// ingest 100k+ edges over HTTP in batches, stop the server gracefully (the
// final checkpoint), restart from the spool, continue ingesting — and the
// restarted server's every answer is bit-identical to an uninterrupted
// twin fed the same traffic.
func TestServerGracefulShutdownBitIdenticalRestore(t *testing.T) {
	spool := t.TempDir()
	edges := zipfEdges(17, 120000, 500, 5000)
	half := len(edges) / 2
	const batch = 5000

	feed := func(url string, part []stream.Edge, rotateEvery int) {
		for i := 0; i < len(part); i += batch {
			end := i + batch
			if end > len(part) {
				end = len(part)
			}
			ingest(t, url, part[i:end], true)
			if rotateEvery > 0 && (i/batch+1)%rotateEvery == 0 {
				post(t, url+"/rotate", "")
			}
		}
	}

	// Phase 1: server A takes the first half, rotating every 4 batches.
	a, err := New(testConfig(spool))
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	feed(tsA.URL, edges[:half], 4)
	tsA.Close()
	if err := a.Close(); err != nil { // graceful stop: drain + final checkpoint
		t.Fatal(err)
	}
	if _, err := os.Stat(spool + "/current.ckpt"); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}

	// Phase 2: server B restarts from the spool and takes the second half.
	b, err := New(testConfig(spool))
	if err != nil {
		t.Fatalf("restart from checkpoint: %v", err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Close()
	if b.Epoch() != a.Epoch() {
		t.Fatalf("restored epoch %d, want %d", b.Epoch(), a.Epoch())
	}
	feed(tsB.URL, edges[half:], 4)

	// The uninterrupted twin sees all traffic in one life, same rotation
	// schedule (every 4 batches across the whole stream — the halves are
	// multiples of 4 batches, so the schedules line up).
	c, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	defer c.Close()
	feed(tsC.URL, edges[:half], 4)
	feed(tsC.URL, edges[half:], 4)

	// Bit-identical: every user's estimate, the merged total, the user
	// count, and the epoch must agree exactly — restored state plus
	// continued traffic is indistinguishable from never having stopped.
	if b.Epoch() != c.Epoch() {
		t.Fatalf("epochs %d vs %d", b.Epoch(), c.Epoch())
	}
	wantUsers := make(map[uint64]float64)
	c.Estimator().Users(func(u uint64, e float64) { wantUsers[u] = e })
	gotUsers := make(map[uint64]float64)
	b.Estimator().Users(func(u uint64, e float64) { gotUsers[u] = e })
	if len(gotUsers) != len(wantUsers) {
		t.Fatalf("user sets differ: %d vs %d", len(gotUsers), len(wantUsers))
	}
	for u, want := range wantUsers {
		if got, ok := gotUsers[u]; !ok || got != want {
			t.Fatalf("user %d: restored %v, twin %v", u, gotUsers[u], want)
		}
	}
	bTotal, errB := b.Estimator().TotalDistinctMerged()
	cTotal, errC := c.Estimator().TotalDistinctMerged()
	if errB != nil || errC != nil {
		t.Fatalf("merged totals: %v, %v", errB, errC)
	}
	if bTotal != cTotal {
		t.Fatalf("merged totals %v vs %v", bTotal, cTotal)
	}
	// And over HTTP, spot-checking the serving path end to end.
	for _, u := range []uint64{0, 1, 7, 42, 137} {
		_, gotB := get(t, fmt.Sprintf("%s/estimate?user=%d", tsB.URL, u))
		_, gotC := get(t, fmt.Sprintf("%s/estimate?user=%d", tsC.URL, u))
		if gotB != gotC {
			t.Fatalf("user %d over HTTP: %s vs %s", u, gotB, gotC)
		}
	}
}

// TestServerSpoolFingerprintMismatch: a checkpoint must refuse to restore
// into a differently configured service instead of silently adopting it.
func TestServerSpoolFingerprintMismatch(t *testing.T) {
	spool := t.TempDir()
	s, err := New(testConfig(spool))
	if err != nil {
		t.Fatal(err)
	}
	s.submit([]stream.Edge{{User: 1, Item: 2}}, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"memory":      func(c *Config) { c.MemoryBits = 1 << 21 },
		"shards":      func(c *Config) { c.Shards = 8 },
		"generations": func(c *Config) { c.Generations = 2 },
		"seed":        func(c *Config) { c.Seed = 99 },
		"method":      func(c *Config) { c.Method = "freebs" },
	} {
		cfg := testConfig(spool)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s mismatch restored silently", name)
		}
	}
	// The matching configuration still restores.
	ok, err := New(testConfig(spool))
	if err != nil {
		t.Fatal(err)
	}
	if ok.Estimator().NumUsers() != 1 {
		t.Fatalf("restore lost the user")
	}
	ok.cfg.SpoolDir = "" // skip the shutdown checkpoint
	ok.Close()
}

// TestServerCorruptSpoolRefused: bit rot in the spool must be a startup
// error, not a silent half-restore.
func TestServerCorruptSpoolRefused(t *testing.T) {
	spool := t.TempDir()
	s, err := New(testConfig(spool))
	if err != nil {
		t.Fatal(err)
	}
	s.submit([]stream.Edge{{User: 1, Item: 2}}, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := spool + "/current.ckpt"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testConfig(spool)); err == nil {
		t.Fatal("corrupt checkpoint restored")
	}
}

// TestServerConcurrentIngestAndRotation hammers the pipeline from many
// clients while epochs rotate — under -race this proves the ingest gate's
// quiesce-cut discipline, and the edges-ingested counter must account for
// every edge. (TestServerTorture is the heavier sibling: both protocols,
// wait and async, a query storm, and checkpoints in the mix.)
func TestServerConcurrentIngestAndRotation(t *testing.T) {
	s, ts := newTestServer(t, testConfig(""))
	const (
		clients = 8
		batches = 20
		perB    = 500
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) << 32
			for b := 0; b < batches; b++ {
				var sb strings.Builder
				for i := 0; i < perB; i++ {
					fmt.Fprintf(&sb, "%d %d\n", base|uint64(i%50), uint64(b*perB+i))
				}
				resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(sb.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			post(t, ts.URL+"/rotate", "")
			get(t, ts.URL+"/total")
			get(t, ts.URL+"/topk?k=5")
		}
	}()
	wg.Wait()
	// Flush the async pipeline (a true barrier: queued AND mid-absorption
	// batches), then the counter is exact.
	if code, _ := post(t, ts.URL+"/flush", ""); code != http.StatusOK {
		t.Fatalf("flush returned %d", code)
	}
	if got := s.edgesIngested.Value(); got != clients*batches*perB {
		t.Fatalf("ingested %d edges, want %d", got, clients*batches*perB)
	}
	if s.Epoch() != 10 {
		t.Fatalf("epoch %d after 10 rotations", s.Epoch())
	}
}

// TestServerAsyncFlushBarrier: 202-mode ingestion plus one /flush is
// equivalent to waited ingestion — after the flush returns, queries
// reflect every accepted batch.
func TestServerAsyncFlushBarrier(t *testing.T) {
	s, ts := newTestServer(t, testConfig(""))
	for b := 0; b < 10; b++ {
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&sb, "%d %d\n", b*200+i, i)
		}
		if code, body := post(t, ts.URL+"/ingest", sb.String()); code != http.StatusAccepted {
			t.Fatalf("async ingest returned %d: %s", code, body)
		}
	}
	if code, _ := post(t, ts.URL+"/flush", ""); code != http.StatusOK {
		t.Fatal("flush failed")
	}
	// Every accepted edge is in the sketch — the counter only moves after
	// absorption, so it is the barrier's exact witness. (User-count is NOT
	// exactly 2000 here: a few single-pair users deterministically land on
	// already-set shared registers and keep estimate 0.)
	if got := s.edgesIngested.Value(); got != 2000 {
		t.Fatalf("flush returned with %d of 2000 edges absorbed", got)
	}
	if _, body := get(t, ts.URL+"/users"); jsonNumber(t, body, "count") < 1900 {
		t.Fatalf("user count implausibly low after flush: %s", body)
	}
}

// TestServerTimers: wall-clock rotation and periodic checkpointing fire on
// their own. Generous deadlines keep this robust on loaded CI machines.
func TestServerTimers(t *testing.T) {
	spool := t.TempDir()
	cfg := testConfig(spool)
	cfg.Epoch = 20 * time.Millisecond
	cfg.CheckpointEvery = 20 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.submit([]stream.Edge{{User: 1, Item: 1}}, true)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Epoch() >= 1 && s.checkpoints.Value() >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("after 5s: epoch=%d checkpoints=%d", s.Epoch(), s.checkpoints.Value())
}

// TestServerClosedRefusesIngest: after Close, ingestion reports 503 and
// queries keep answering from the final state.
func TestServerClosedRefusesIngest(t *testing.T) {
	cfg := testConfig("")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingest(t, ts.URL, []stream.Edge{{User: 5, Item: 6}}, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, ts.URL+"/ingest", "1 2\n"); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close returned %d", code)
	}
	_, body := get(t, ts.URL+"/estimate?user=5")
	if est := jsonNumber(t, body, "estimate"); est <= 0 {
		t.Fatalf("query after Close lost state: %s", body)
	}
}

// TestServerOversizedBatch: the body limit turns runaway batches into 413,
// not memory pressure.
func TestServerOversizedBatch(t *testing.T) {
	cfg := testConfig("")
	cfg.MaxBodyBytes = 64
	_, ts := newTestServer(t, cfg)
	code, _ := post(t, ts.URL+"/ingest", strings.Repeat("1 2\n", 100))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch returned %d", code)
	}
}
