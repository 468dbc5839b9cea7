package main

// The durability acceptance test: a REAL cardserved process — the built
// binary, not an in-process run() — is killed with SIGKILL at a random
// point mid-ingest, restarted on the same spool and WAL directories, and
// must come back bit-identical (serialized checkpoint bytes, not just
// estimates) to a twin that absorbed exactly the effective prefix. "kill
// -9 durability" here means: every batch the client saw acked is present
// after restart, and at most the single in-flight unacked batch may
// additionally have reached the log before the kill landed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	crashBatchEdges = 700 // edges per batch; constant so replay arithmetic is exact
	crashBatches    = 150 // ~105k edges total, per the acceptance bar
	crashRotateMod  = 20  // POST /rotate after every 20th batch
	crashCkptBatch  = 40  // mid-feed POST /checkpoint, so replay rides ON TOP of a checkpoint
)

// crashBatchBody renders batch i of the deterministic edge stream as the
// text ingest protocol.
func crashBatchBody(i int) string {
	var sb strings.Builder
	sb.Grow(crashBatchEdges * 12)
	for j := 0; j < crashBatchEdges; j++ {
		fmt.Fprintf(&sb, "%d %d\n", (i*7+j)%500, i*crashBatchEdges+j)
	}
	return sb.String()
}

func crashPost(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

var metricRe = regexp.MustCompile(`(?m)^cardserved_edges_ingested_total (\d+)$`)

// uptimeRe matches /healthz's uptime_s: process age, not state, so a
// restored daemon and its younger twin may differ in it by whole seconds.
var uptimeRe = regexp.MustCompile(`"uptime_s":\d+`)

// blankUptime neutralizes uptime_s so /healthz bodies compare on state.
func blankUptime(body string) string { return uptimeRe.ReplaceAllString(body, `"uptime_s":0`) }

// TestDaemonSIGKILLRecovery runs under -race in CI's test job; the killed
// child is the plainly built binary, while the restarted server and the
// twin run in-process so the replay and comparison paths get race
// coverage.
func TestDaemonSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "cardserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cardserved: %v\n%s", err, out)
	}

	spool, walDir := t.TempDir(), t.TempDir()
	args := []string{"-mbits", "1048576", "-shards", "2", "-gens", "2",
		"-spool", spool, "-wal-dir", walDir, "-wal-sync", "never",
		"-wal-segment-bytes", "65536"}
	// -wal-sync never is deliberate: SIGKILL durability must come from the
	// write(2)-before-ack discipline alone (the page cache survives the
	// process), not from fsync. fsync policy only narrows POWER-loss
	// exposure, which no test can simulate.

	seed := time.Now().UnixNano()
	t.Logf("kill-point seed %d (re-run with this logged seed to reproduce)", seed)
	rng := rand.New(rand.NewSource(seed))
	killAfter := 90 + rng.Intn(crashBatches-90) // batches acked before the kill

	// --- Phase 1: the victim, as a real process.
	victimOut := &syncBuffer{}
	victim := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	victim.Stdout = victimOut
	victim.Stderr = victimOut
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	var base string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if m := listenRe.FindStringSubmatch(victimOut.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		victim.Process.Kill()
		t.Fatalf("victim never listened:\n%s", victimOut.String())
	}

	for i := 0; i < killAfter; i++ {
		if code := crashPost(t, base+"/ingest?wait=1", crashBatchBody(i)); code != http.StatusOK {
			t.Fatalf("batch %d acked with %d", i, code)
		}
		if i%crashRotateMod == crashRotateMod-1 {
			if code := crashPost(t, base+"/rotate", ""); code != http.StatusOK {
				t.Fatalf("rotate after batch %d: %d", i, code)
			}
		}
		if i == crashCkptBatch {
			if code := crashPost(t, base+"/checkpoint", ""); code != http.StatusOK {
				t.Fatalf("mid-feed checkpoint: %d", code)
			}
		}
	}
	// One more batch in flight, unacked, when the kill lands: the client
	// may or may not see it after restart — both are legal, and the metric
	// read below tells us which world we are in.
	var inflight sync.WaitGroup
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(crashBatchBody(killAfter)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
	if err := victim.Process.Kill(); err != nil { // SIGKILL — no handler runs
		t.Fatal(err)
	}
	victim.Wait() // reaps the zombie; a kill error is the expected exit
	inflight.Wait()

	// --- Phase 2: restart on the same directories (in-process, so replay
	// runs under the race detector when the suite does).
	base2, sig2, errc2, out2 := startDaemon(t, args)
	defer stopDaemon(t, sig2, errc2)
	if !strings.Contains(out2.String(), "restored checkpoint") {
		t.Fatalf("restart did not restore the mid-feed checkpoint:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "replayed") {
		t.Fatalf("restart replayed nothing:\n%s", out2.String())
	}
	_, metricsBody := httpGet(t, base2+"/metrics")
	m := metricRe.FindStringSubmatch(metricsBody)
	if m == nil {
		t.Fatalf("edges_ingested missing from /metrics:\n%s", metricsBody)
	}
	var tail int
	fmt.Sscan(m[1], &tail)
	// The counter is process-local: after restart it counts exactly the
	// replayed tail — acked batches above the checkpoint, plus possibly the
	// one in-flight batch if its record reached the log intact.
	ackedTail := (killAfter - crashCkptBatch - 1) * crashBatchEdges
	finalIncluded := false
	switch tail {
	case ackedTail:
	case ackedTail + crashBatchEdges:
		finalIncluded = true
	default:
		t.Fatalf("replayed %d edges; acked tail is %d — kill -9 %s acked data (seed %d)",
			tail, ackedTail,
			map[bool]string{true: "duplicated", false: "lost"}[tail > ackedTail], seed)
	}
	t.Logf("killed after batch %d; in-flight batch logged before kill: %v", killAfter, finalIncluded)

	// --- Phase 3: the twin absorbs the effective prefix uninterrupted.
	twinSpool, twinWAL := t.TempDir(), t.TempDir()
	twinArgs := []string{"-mbits", "1048576", "-shards", "2", "-gens", "2",
		"-spool", twinSpool, "-wal-dir", twinWAL, "-wal-sync", "never",
		"-wal-segment-bytes", "65536"}
	base3, sig3, errc3, _ := startDaemon(t, twinArgs)
	defer stopDaemon(t, sig3, errc3)
	for i := 0; i < killAfter; i++ {
		if code := crashPost(t, base3+"/ingest?wait=1", crashBatchBody(i)); code != http.StatusOK {
			t.Fatalf("twin batch %d: %d", i, code)
		}
		if i%crashRotateMod == crashRotateMod-1 {
			crashPost(t, base3+"/rotate", "")
		}
	}
	if finalIncluded {
		crashPost(t, base3+"/ingest?wait=1", crashBatchBody(killAfter))
	}

	// Live answers agree...
	for _, q := range []string{"/total", "/estimate?user=3", "/estimate?user=250", "/healthz"} {
		_, got := httpGet(t, base2+q)
		_, want := httpGet(t, base3+q)
		if got, want = blankUptime(got), blankUptime(want); got != want {
			t.Fatalf("%s diverged after crash recovery:\n restored: %s\n twin:     %s", q, got, want)
		}
	}
	// ...and so does the full serialized state: checkpoint both and compare
	// the envelope byte for byte (same sketch bytes, same WAL position,
	// same in-epoch edge baseline).
	crashPost(t, base2+"/checkpoint", "")
	crashPost(t, base3+"/checkpoint", "")
	restoredCkpt, err := os.ReadFile(filepath.Join(spool, "current.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	twinCkpt, err := os.ReadFile(filepath.Join(twinSpool, "current.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restoredCkpt, twinCkpt) {
		t.Fatalf("serialized state after crash recovery differs from the twin (%d vs %d bytes, seed %d)",
			len(restoredCkpt), len(twinCkpt), seed)
	}
}
