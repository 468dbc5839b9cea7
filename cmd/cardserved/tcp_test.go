package main

// CWT1 daemon coverage: the -tcp-addr listener serves pipelined binary
// ingest alongside HTTP, survives the full SIGTERM lifecycle, and — the
// acceptance bar — holds the ack contract across SIGKILL: every frame the
// client saw acked over TCP is present after a crash restart, with at most
// the client's in-flight window additionally logged.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/stream"
)

var tcpListenRe = regexp.MustCompile(`tcp ingest on ([0-9.:\[\]]+)`)

// waitForTCPAddr polls the daemon's output for the CWT1 listener line.
func waitForTCPAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := tcpListenRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced a tcp listener:\n%s", out.String())
	return ""
}

// dialCWT1 connects and sends the protocol preamble.
func dialCWT1(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(stream.TCPMagic)); err != nil {
		t.Fatal(err)
	}
	return conn.(*net.TCPConn)
}

// TestDaemonTCPIngest: frames sent over -tcp-addr are acked, absorbed, and
// visible to HTTP queries; the daemon still stops cleanly on SIGTERM with
// the connection open.
func TestDaemonTCPIngest(t *testing.T) {
	base, sig, errc, out := startDaemon(t, []string{
		"-mbits", "1048576", "-shards", "2", "-tcp-addr", "127.0.0.1:0"})
	tcpAddr := waitForTCPAddr(t, out)

	conn := dialCWT1(t, tcpAddr)
	defer conn.Close()
	payload := stream.AppendWire(nil, []stream.Edge{
		{User: 1, Item: 100}, {User: 1, Item: 101}, {User: 1, Item: 102}, {User: 2, Item: 100}})
	frame := stream.AppendFrameHeader(nil, 1, len(payload))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var rec [stream.AckLen]byte
	if _, err := io.ReadFull(conn, rec[:]); err != nil {
		t.Fatal(err)
	}
	seq, status, err := stream.ParseAck(rec[:])
	if err != nil || seq != 1 || status != stream.AckOK {
		t.Fatalf("ack (%d, %d, %v)", seq, status, err)
	}

	// The ack means logged-and-queued; /flush is the absorption barrier.
	resp, err := http.Post(base+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	code, body := httpGet(t, base+"/estimate?user=1")
	if code != http.StatusOK || !strings.Contains(body, `"estimate":3`) {
		t.Fatalf("estimate after TCP ingest: %d %s", code, body)
	}
	_, metricsBody := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"cardserved_tcp_connections_active 1",
		"cardserved_tcp_frames_total 1",
		`cardserved_tcp_acks_total{status="200"} 1`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	stopDaemon(t, sig, errc)
}

// TestDaemonLogsRefusedTCPFrame: a correctly framed CWT1 frame whose CWB1
// payload is corrupt is acked 400, and the daemon says so on stderr: one
// line for the connection's first refused frame, naming its seq and
// status, and one line with the refused count by status when the
// connection closes — never a line per refused frame.
func TestDaemonLogsRefusedTCPFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "cardserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cardserved: %v\n%s", err, out)
	}
	out := &syncBuffer{}
	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-mbits", "1048576", "-shards", "2",
		"-tcp-addr", "127.0.0.1:0")
	daemon.Stdout = out
	daemon.Stderr = out
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	conn := dialCWT1(t, waitForTCPAddr(t, out))
	defer conn.Close()

	payload := stream.AppendWire(nil, []stream.Edge{{User: 1, Item: 100}, {User: 2, Item: 200}})
	payload[len(payload)-1] ^= 0xff // break the CWB1 checksum; the CWT1 framing stays valid
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var rec [stream.AckLen]byte
	for _, seq := range []uint64{41, 42} {
		frame := stream.AppendFrameHeader(nil, seq, len(payload))
		if _, err := conn.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, rec[:]); err != nil {
			t.Fatal(err)
		}
		if got, status, err := stream.ParseAck(rec[:]); err != nil || got != seq || status != stream.AckBad {
			t.Fatalf("ack (%d, %d, %v), want (%d, %d)", got, status, err, seq, stream.AckBad)
		}
	}
	conn.Close()

	first := regexp.MustCompile(`tcp \S+: refused frame seq 41 with status 400: wire: checksum mismatch`)
	closing := regexp.MustCompile(`tcp \S+: connection closed after refusing 2 frames: 2 with status 400`)
	deadline := time.Now().Add(10 * time.Second)
	for !closing.MatchString(out.String()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	log := out.String()
	if !first.MatchString(log) || !closing.MatchString(log) {
		t.Fatalf("stderr lacks the refused-frame lines:\n%s", log)
	}
	if strings.Contains(log, "seq 42") {
		t.Fatalf("stderr names the second refused frame; want one line per connection for it:\n%s", log)
	}
}

// crashBatch renders batch i of the same deterministic stream
// crashBatchBody emits, as binary edges.
func crashBatch(i int) []stream.Edge {
	edges := make([]stream.Edge, crashBatchEdges)
	for j := range edges {
		edges[j] = stream.Edge{User: uint64((i*7 + j) % 500), Item: uint64(i*crashBatchEdges + j)}
	}
	return edges
}

// TestDaemonSIGKILLRecoveryTCP: the TCP ack contract under kill -9. A real
// cardserved process takes pipelined CWT1 frames (window W in flight);
// SIGKILL lands mid-stream. After an in-process restart on the same WAL,
// the replayed edge count E must sit in the acked-prefix window
//
//	A*batch <= E <= (A+W)*batch, E ≡ 0 (mod batch)
//
// where A is the number of 200 acks the client had READ — an acked frame
// may never be lost, and only the unacked in-flight window may have
// additionally reached the log. A twin absorbing exactly the logged prefix
// must then match the restored daemon byte for byte.
func TestDaemonSIGKILLRecoveryTCP(t *testing.T) {
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
		"-wal-segment-bytes", "65536", "-tcp-addr", "127.0.0.1:0"}
	// -wal-sync never: as in the HTTP variant, SIGKILL durability must come
	// from write(2)-before-ack alone.

	seed := time.Now().UnixNano()
	t.Logf("kill-point seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	victimOut := &syncBuffer{}
	victim := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	victim.Stdout = victimOut
	victim.Stderr = victimOut
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	tcpAddr := waitForTCPAddr(t, victimOut)

	conn := dialCWT1(t, tcpAddr)
	defer conn.Close()
	const window = 4
	sem := make(chan struct{}, window)
	var acked atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReader(conn)
		var rec [stream.AckLen]byte
		for {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return // kill lands: reset/EOF; acked holds the read prefix
			}
			if _, status, err := stream.ParseAck(rec[:]); err != nil || status != stream.AckOK {
				return
			}
			acked.Add(1)
			<-sem
		}
	}()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		for i := 0; i < crashBatches; i++ {
			select {
			case sem <- struct{}{}: // at most `window` unacked frames in flight
			case <-readerDone: // kill landed; nothing will drain the window
				return
			}
			payload := stream.AppendWire(buf[:0], crashBatch(i))
			frame := stream.AppendFrameHeader(nil, uint64(i+1), len(payload))
			if _, err := conn.Write(append(frame, payload...)); err != nil {
				return // killed mid-stream — expected
			}
			buf = payload
		}
	}()
	time.Sleep(time.Duration(5+rng.Intn(40)) * time.Millisecond)
	if err := victim.Process.Kill(); err != nil { // SIGKILL — no handler runs
		t.Fatal(err)
	}
	victim.Wait()
	conn.CloseRead() // unblock the ack reader if the RST was swallowed
	<-readerDone
	conn.Close()
	<-writerDone
	ackedN := int(acked.Load())
	t.Logf("client had read %d acks at kill time", ackedN)

	// Restart in-process on the same directories; the WAL tail IS the
	// ingest history (no mid-feed checkpoint in this variant).
	base2, sig2, errc2, out2 := startDaemon(t, args)
	defer stopDaemon(t, sig2, errc2)
	if ackedN > 0 && !strings.Contains(out2.String(), "replayed") {
		t.Fatalf("restart replayed nothing after %d acked frames:\n%s", ackedN, out2.String())
	}
	_, metricsBody := httpGet(t, base2+"/metrics")
	m := metricRe.FindStringSubmatch(metricsBody)
	if m == nil {
		t.Fatalf("edges_ingested missing from /metrics:\n%s", metricsBody)
	}
	var replayed int
	fmt.Sscan(m[1], &replayed)
	if replayed%crashBatchEdges != 0 {
		t.Fatalf("replayed %d edges — not whole frames (frame = %d edges, seed %d)",
			replayed, crashBatchEdges, seed)
	}
	logged := replayed / crashBatchEdges
	if logged < ackedN || logged > ackedN+window {
		t.Fatalf("replayed %d frames, acked prefix %d, window %d: kill -9 %s acked data (seed %d)",
			logged, ackedN, window,
			map[bool]string{true: "duplicated", false: "lost"}[logged > ackedN+window], seed)
	}
	t.Logf("%d frames logged (acked prefix %d, window %d)", logged, ackedN, window)

	// The twin absorbs exactly the logged prefix, uninterrupted, over HTTP:
	// transport must not matter to the replayed state.
	twinSpool, twinWAL := t.TempDir(), t.TempDir()
	twinArgs := []string{"-mbits", "1048576", "-shards", "2", "-gens", "2",
		"-spool", twinSpool, "-wal-dir", twinWAL, "-wal-sync", "never",
		"-wal-segment-bytes", "65536"}
	base3, sig3, errc3, _ := startDaemon(t, twinArgs)
	defer stopDaemon(t, sig3, errc3)
	for i := 0; i < logged; i++ {
		if code := crashPost(t, base3+"/ingest?wait=1", crashBatchBody(i)); code != http.StatusOK {
			t.Fatalf("twin batch %d: %d", i, code)
		}
	}
	for _, q := range []string{"/total", "/estimate?user=3", "/estimate?user=250", "/healthz"} {
		_, got := httpGet(t, base2+q)
		_, want := httpGet(t, base3+q)
		if got, want = blankUptime(got), blankUptime(want); got != want {
			t.Fatalf("%s diverged after TCP crash recovery:\n restored: %s\n twin:     %s", q, got, want)
		}
	}
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
		t.Fatalf("serialized state after TCP crash recovery differs from the twin (%d vs %d bytes, seed %d)",
			len(restoredCkpt), len(twinCkpt), seed)
	}
}
