package server

// CWT1 transport tests: the persistent TCP ingest path must be
// semantically invisible — a pipelined connection's accepted frames absorb
// bit-identically to the same batches waited through submit — while its
// error discipline (reject-and-resync on a bad payload, close on a torn
// header, ack-before-close on shutdown) and its durability contract (ack
// implies WAL record) hold exactly as specified in internal/stream.

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// tcpClient is a minimal CWT1 client for tests: it owns the connection,
// numbers frames, and reads acks.
type tcpClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

// dialTCP starts a CWT1 listener on s and connects a client to it,
// preamble included.
func dialTCP(t *testing.T, s *Server) *tcpClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeTCP(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(stream.TCPMagic)); err != nil {
		t.Fatal(err)
	}
	return &tcpClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes one frame carrying edges and returns its sequence number.
func (c *tcpClient) send(edges []stream.Edge) uint64 {
	c.t.Helper()
	c.seq++
	payload := stream.AppendWire(nil, edges)
	frame := stream.AppendFrameHeader(nil, c.seq, len(payload))
	if _, err := c.conn.Write(append(frame, payload...)); err != nil {
		c.t.Fatal(err)
	}
	return c.seq
}

// readAck reads one ack, with a deadline so a lost ack fails the test
// instead of hanging it.
func (c *tcpClient) readAck() (seq uint64, status uint16) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var rec [stream.AckLen]byte
	if _, err := io.ReadFull(c.br, rec[:]); err != nil {
		c.t.Fatalf("reading ack: %v", err)
	}
	seq, status, err := stream.ParseAck(rec[:])
	if err != nil {
		c.t.Fatalf("parsing ack: %v", err)
	}
	return seq, status
}

// expectEOF asserts the server closed the connection (after all pending
// acks were read).
func (c *tcpClient) expectEOF() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.br.ReadByte(); err != io.EOF {
		c.t.Fatalf("want connection close, got %v", err)
	}
}

// approxCard tolerates the sketch's estimation error on small exact
// cardinalities (the bit-identity tests compare twin-vs-twin exactly; here
// only TCP-vs-truth plausibility is at stake).
func approxCard(got, want float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= 0.05*want+0.5
}

func newTCPTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTCPPipelinedIngestBitIdenticalToTwin: a client pushes a whole batch
// schedule down one connection without waiting for acks (pipelining), with
// rotations interleaved; a twin takes the identical schedule through the
// synchronous submit path. Every ack must be 200, and every per-user
// estimate, the merged total, and the epoch must agree exactly — TCP is a
// transport, not a semantic.
func TestTCPPipelinedIngestBitIdenticalToTwin(t *testing.T) {
	tcp := newTCPTestServer(t, testConfig(""))
	twin := newTCPTestServer(t, testConfig(""))
	c := dialTCP(t, tcp)

	edges := zipfEdges(31, 40000, 250, 2000)
	const batch = 500
	sent := 0
	for i := 0; i < len(edges); i += batch {
		end := i + batch
		if end > len(edges) {
			end = len(edges)
		}
		chunk := edges[i:end]
		c.send(chunk)
		sent++
		if err := twin.submit(chunk, true); err != nil {
			t.Fatal(err)
		}
		if sent%17 == 0 {
			// Rotation mid-pipeline: frames already on the wire absorb
			// before the cut (the gate drains pending), later ones after.
			// The twin rotates at the same batch boundary. The acked prefix
			// barrier below makes the schedules identical.
			for ; sent > 0; sent-- {
				if _, status := c.readAck(); status != stream.AckOK {
					t.Fatalf("ack status %d", status)
				}
			}
			tcp.Drain()
			tcp.rotate()
			twin.rotate()
		}
	}
	for ; sent > 0; sent-- {
		if _, status := c.readAck(); status != stream.AckOK {
			t.Fatalf("ack status %d", status)
		}
	}
	tcp.Drain()

	if tcp.Epoch() != twin.Epoch() {
		t.Fatalf("epochs %d vs %d", tcp.Epoch(), twin.Epoch())
	}
	want := make(map[uint64]float64)
	twin.Estimator().Users(func(u uint64, e float64) { want[u] = e })
	got := make(map[uint64]float64)
	tcp.Estimator().Users(func(u uint64, e float64) { got[u] = e })
	if len(got) != len(want) {
		t.Fatalf("user sets differ: %d vs %d", len(got), len(want))
	}
	for u, w := range want {
		if g, ok := got[u]; !ok || g != w {
			t.Fatalf("user %d: tcp %v, twin %v", u, got[u], w)
		}
	}
	a, errA := tcp.Estimator().TotalDistinctMerged()
	b, errB := twin.Estimator().TotalDistinctMerged()
	if errA != nil || errB != nil || a != b {
		t.Fatalf("merged totals %v (%v) vs %v (%v)", a, errA, b, errB)
	}
}

// TestTCPBadPayloadAcks400AndResyncs: a frame whose header is valid but
// whose CWB1 payload is corrupt must be rejected ALONE — acked 400, the
// frames around it acked 200 and absorbed — because the header's length
// still delimits the stream exactly.
func TestTCPBadPayloadAcks400AndResyncs(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	c := dialTCP(t, s)

	good1 := []stream.Edge{{User: 1, Item: 10}, {User: 1, Item: 11}}
	c.send(good1)
	// Hand-build a frame with a payload that fails CWB1 validation.
	c.seq++
	payload := stream.AppendWire(nil, []stream.Edge{{User: 9, Item: 9}})
	payload[len(payload)-1] ^= 0xff // break the CWB1 CRC
	frame := stream.AppendFrameHeader(nil, c.seq, len(payload))
	if _, err := c.conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	good2 := []stream.Edge{{User: 2, Item: 20}}
	c.send(good2)

	for i, want := range []uint16{stream.AckOK, stream.AckBad, stream.AckOK} {
		seq, status := c.readAck()
		if seq != uint64(i+1) || status != want {
			t.Fatalf("ack %d: (%d, %d), want (%d, %d)", i, seq, status, i+1, want)
		}
	}
	s.Drain()
	if got := s.sh.Snapshot().Estimate(1); !approxCard(got, 2) {
		t.Fatalf("user 1 estimate %v, want ~2", got)
	}
	if got := s.sh.Snapshot().Estimate(9); got != 0 {
		t.Fatalf("rejected frame leaked: user 9 estimate %v", got)
	}
	if got := s.sh.Snapshot().Estimate(2); !approxCard(got, 1) {
		t.Fatalf("user 2 estimate %v, want ~1", got)
	}
}

// TestTCPCorruptHeaderClosesWithoutMisack: once a frame HEADER is corrupt,
// framing is lost — the server must ack everything it accepted before the
// damage, then close the connection, and nothing after the damage may be
// acked or absorbed.
func TestTCPCorruptHeaderClosesWithoutMisack(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	c := dialTCP(t, s)

	c.send([]stream.Edge{{User: 5, Item: 50}})
	// A torn header: flip a byte inside the header of the next frame.
	c.seq++
	payload := stream.AppendWire(nil, []stream.Edge{{User: 6, Item: 60}})
	frame := stream.AppendFrameHeader(nil, c.seq, len(payload))
	frame[3] ^= 0x80
	if _, err := c.conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}

	if seq, status := c.readAck(); seq != 1 || status != stream.AckOK {
		t.Fatalf("first ack (%d, %d)", seq, status)
	}
	c.expectEOF()
	s.Drain()
	if got := s.sh.Snapshot().Estimate(6); got != 0 {
		t.Fatalf("frame after corrupt header absorbed: estimate %v", got)
	}
}

// TestTCPRejectsBadPreamble: a connection that does not open with "CWT1"
// (an HTTP request aimed at the wrong port, say) is closed before any
// frame is read.
func TestTCPRejectsBadPreamble(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeTCP(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
		t.Fatalf("want close on bad preamble, got %v", err)
	}
}

// TestTCPClientHalfCloseDrains: a client that finishes (CloseWrite) still
// gets every outstanding ack, then a clean server-side close — the
// graceful end-of-stream path cardload uses.
func TestTCPClientHalfCloseDrains(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	c := dialTCP(t, s)

	const frames = 40
	edges := zipfEdges(7, frames*100, 50, 500)
	for i := 0; i < frames; i++ {
		c.send(edges[i*100 : (i+1)*100])
	}
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, status := c.readAck(); status != stream.AckOK {
			t.Fatalf("ack %d status %d", i, status)
		}
	}
	c.expectEOF()
	s.Drain()
	exact := make(map[uint64]map[uint64]bool)
	for _, e := range edges {
		if exact[e.User] == nil {
			exact[e.User] = make(map[uint64]bool)
		}
		exact[e.User][e.Item] = true
	}
	for u, items := range exact {
		if got := s.sh.Snapshot().Estimate(u); !approxCard(got, float64(len(items))) {
			t.Fatalf("user %d: estimate %v, want ~%d", u, got, len(items))
		}
	}
}

// TestTCPServerCloseAcksInFlight: Close half-closes live connections; a
// client mid-pipeline must still receive an ack for every frame it managed
// to send before the cut — and every 200-acked frame must be in the final
// checkpoint's state (here: absorbed before Close returned).
func TestTCPServerCloseAcksInFlight(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	c := dialTCP(t, s)

	const frames = 20
	for i := 0; i < frames; i++ {
		c.send([]stream.Edge{{User: 77, Item: uint64(i)}})
	}
	// Acks confirm the server has READ the frames; Close after that point
	// must still ack-and-absorb all of them (here they are already acked —
	// the invariant under test is that Close never cuts an acked frame).
	acked := 0
	for ; acked < frames; acked++ {
		if _, status := c.readAck(); status != stream.AckOK {
			t.Fatalf("ack %d status %d", acked, status)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c.expectEOF()
	if got := s.sh.Snapshot().Estimate(77); !approxCard(got, frames) {
		t.Fatalf("estimate %v after close, want ~%d (every acked frame absorbed)", got, frames)
	}
	// New listeners are refused outright.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeTCP(ln); err != ErrClosed {
		t.Fatalf("ServeTCP after Close: %v, want ErrClosed", err)
	}
}

// TestTCPWALDurability: with the WAL on, a 200 ack over TCP means the
// frame is logged — a server torn down WITHOUT a final checkpoint (no
// spool) must reproduce every acked frame from the log alone.
func TestTCPWALDurability(t *testing.T) {
	cfg := testConfig("")
	cfg.WALDir = t.TempDir()
	s := newTCPTestServer(t, cfg)
	c := dialTCP(t, s)

	edges := zipfEdges(13, 5000, 100, 800)
	for i := 0; i < len(edges); i += 250 {
		c.send(edges[i : i+250])
	}
	for i := 0; i < len(edges)/250; i++ {
		if _, status := c.readAck(); status != stream.AckOK {
			t.Fatalf("ack %d status %d", i, status)
		}
	}
	want := make(map[uint64]float64)
	s.Drain()
	s.sh.Snapshot().Users(func(u uint64, e float64) { want[u] = e })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	records, replayed := re.WALReplayed()
	if records == 0 || replayed != len(edges) {
		t.Fatalf("replayed %d records / %d edges, want all %d edges", records, replayed, len(edges))
	}
	got := 0
	re.sh.Snapshot().Users(func(u uint64, e float64) {
		if want[u] != e {
			t.Fatalf("user %d: replayed %v, want %v", u, e, want[u])
		}
		got++
	})
	if got != len(want) {
		t.Fatalf("replayed %d users, want %d", got, len(want))
	}
}

// TestTCPMetricsExposed: the cardserved_tcp_* series appear on /metrics
// and move with traffic.
func TestTCPMetricsExposed(t *testing.T) {
	s := newTCPTestServer(t, testConfig(""))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := dialTCP(t, s)
	c.send([]stream.Edge{{User: 1, Item: 2}})
	if _, status := c.readAck(); status != stream.AckOK {
		t.Fatalf("ack status %d", status)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	for _, want := range []string{
		"cardserved_tcp_connections_active 1",
		"cardserved_tcp_connections_total 1",
		"cardserved_tcp_frames_total 1",
		`cardserved_tcp_acks_total{status="200"} 1`,
		"cardserved_tcp_backpressure_stalls_total",
		"cardserved_tcp_bytes_read_total",
		"cardserved_tcp_ack_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
