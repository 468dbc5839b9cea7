package server

// Tests for the CWB1 binary ingest protocol negotiated on POST /ingest,
// plus the allocation benchmarks behind the hand-rolled /estimate and
// /total responses.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/stream"
)

func postBinary(t *testing.T, url string, frame []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, stream.WireContentType, bytes.NewReader(frame))
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

func TestServerBinaryIngest(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t.TempDir()))

	edges := zipfEdges(3, 20000, 500, 2000)
	frame := stream.AppendWire(nil, edges)
	code, body := postBinary(t, ts.URL+"/ingest?wait=1", frame)
	if code != http.StatusOK {
		t.Fatalf("binary ingest returned %d: %s", code, body)
	}
	if want := fmt.Sprintf(`"edges":%d`, len(edges)); !strings.Contains(body, want) {
		t.Fatalf("binary ingest response %s misses %s", body, want)
	}

	// The batch is queryable after ?wait=1 (read-your-writes), and the two
	// protocols land in the same stack: a text batch for the same user adds
	// only duplicates, so the estimate must not jump.
	code, body = get(t, ts.URL+"/estimate?user=0")
	if code != http.StatusOK {
		t.Fatalf("estimate returned %d: %s", code, body)
	}
	before := jsonNumber(t, body, "estimate")
	if before <= 0 {
		t.Fatalf("binary-ingested user estimates at %v", before)
	}
	var user0 []stream.Edge
	for _, e := range edges {
		if e.User == 0 {
			user0 = append(user0, e)
		}
	}
	ingest(t, ts.URL, user0, true)
	_, body = get(t, ts.URL+"/estimate?user=0")
	if after := jsonNumber(t, body, "estimate"); after != before {
		t.Fatalf("re-ingesting user 0's pairs over text moved the estimate %v -> %v", before, after)
	}
}

func TestServerBinaryIngestRefusesCorruptFrame(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t.TempDir()))

	frame := stream.AppendWire(nil, zipfEdges(4, 100, 10, 50))
	frame[len(frame)/2] ^= 1
	code, body := postBinary(t, ts.URL+"/ingest", frame)
	if code != http.StatusBadRequest {
		t.Fatalf("corrupt frame returned %d: %s", code, body)
	}
	if !strings.Contains(body, "checksum") {
		t.Fatalf("corrupt-frame error does not mention the checksum: %s", body)
	}
	if got := s.sh.Snapshot().NumUsers(); got != 0 {
		t.Fatalf("corrupt frame half-applied: %d users ingested", got)
	}

	// An empty frame is a valid no-op, mirroring the empty text batch.
	if code, body = postBinary(t, ts.URL+"/ingest", stream.AppendWire(nil, nil)); code != http.StatusOK {
		t.Fatalf("empty frame returned %d: %s", code, body)
	}
}

func TestServerBinaryOversizedBatch(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxBodyBytes = 1 << 10
	_, ts := newTestServer(t, cfg)
	frame := stream.AppendWire(nil, zipfEdges(5, 1000, 100, 100))
	if code, body := postBinary(t, ts.URL+"/ingest", frame); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary batch returned %d: %s", code, body)
	}
}

// benchServer builds a warm server outside the timed section: a few
// thousand edges ingested and one query issued so the published view is
// assembled and the handlers run their steady-state path.
func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := New(testConfig(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.submit(zipfEdges(6, 5000, 200, 500), true); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkEstimateHandler measures allocations per /estimate request —
// the regression guard for the hand-rolled response path (the generic
// map[string]any + encoder path it replaced allocated on every request).
func BenchmarkEstimateHandler(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/estimate?user=7", nil)
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		h.ServeHTTP(w, req)
	}
}

// BenchmarkTotalHandler measures allocations per default (summed) /total
// request, the polling-rate reading.
func BenchmarkTotalHandler(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/total", nil)
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		h.ServeHTTP(w, req)
	}
}

// BenchmarkIngestDecodeText and ...Binary isolate the wire-to-edges decode
// the two ingest protocols pay before the sketch sees anything.
func BenchmarkIngestDecodeText(b *testing.B) {
	edges := zipfEdges(8, 65536, 5000, 1000)
	body := edgeLines(edges)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.ParseTextBatch(strings.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestDecodeBinary(b *testing.B) {
	edges := zipfEdges(8, 65536, 5000, 1000)
	frame := stream.AppendWire(nil, edges)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.DecodeWire(frame); err != nil {
			b.Fatal(err)
		}
	}
}
