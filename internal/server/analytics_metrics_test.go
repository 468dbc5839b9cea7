package server

// The analytics read path's /metrics surface: a latency histogram per
// query.

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/stream"
)

func scrapeCounter(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("metric %s not found in /metrics:\n%s", name, body)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAnalyticsMetricsAndFoldCache(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t.TempDir()))
	rng := hashing.NewRNG(77)
	edges := make([]stream.Edge, 4000)
	for i := range edges {
		edges[i] = stream.Edge{User: uint64(rng.Intn(800) + 1), Item: rng.Uint64()}
	}
	if code, body := post(t, ts.URL+"/ingest", edgeLines(edges)); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", code, body)
	}
	s.Drain()

	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}

	get("/topk?k=5")
	get("/topk?k=5")
	get("/users?limit=0")
	get("/users?limit=3")
	get("/total?method=merged")

	// The per-query latency histograms observed the work.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, q := range []string{"topk", "users", "numusers", "merged_total"} {
		pat := fmt.Sprintf(`cardserved_analytics_seconds_count{query="%s"}`, q)
		line := ""
		for _, l := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(l, pat) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("no histogram series for query=%q", q)
		}
		if strings.HasSuffix(line, " 0") {
			t.Fatalf("histogram for query=%q never observed: %s", q, line)
		}
	}
}
