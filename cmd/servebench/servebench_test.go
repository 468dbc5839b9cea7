package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestGenDeterministicAndCountsExact(t *testing.T) {
	const users, n = 1 << 10, 200000
	stream1 := make([]stream.Edge, n)
	stream2 := make([]stream.Edge, n)
	a := newGen(7, tagLoad, users, 100, dup())
	b := newGen(7, tagLoad, users, 100, dup())
	a.fill(stream1[:n/2])
	a.fill(stream1[n/2:]) // chunking must not change the stream
	b.fill(stream2)
	for i := range stream1 {
		if stream1[i] != stream2[i] {
			t.Fatalf("same seed diverged at edge %d: %v vs %v", i, stream1[i], stream2[i])
		}
	}
	other := make([]stream.Edge, 64)
	newGen(8, tagLoad, users, 100, dup()).fill(other)
	same := 0
	for i := range other {
		if other[i] == stream1[i] {
			same++
		}
	}
	if same == len(other) {
		t.Fatal("different seeds generated the same stream")
	}

	distinct := map[stream.Edge]bool{}
	perUser := map[uint64]uint32{}
	for _, e := range stream1 {
		if e.User < 100 || e.User >= 100+users {
			t.Fatalf("user %d outside [100, %d)", e.User, 100+users)
		}
		if !distinct[e] {
			distinct[e] = true
			perUser[e.User]++
		}
	}
	for u, c := range a.counts {
		if perUser[100+uint64(u)] != c {
			t.Fatalf("user %d: counts says %d distinct items, the stream has %d", u, c, perUser[100+uint64(u)])
		}
	}
	if got := a.distinct(); got != float64(len(distinct)) {
		t.Fatalf("distinct() = %g, stream has %d", got, len(distinct))
	}
	if dupFrac := 1 - float64(len(distinct))/n; math.Abs(dupFrac-dup()) > 0.01 {
		t.Fatalf("duplicate fraction %.3f, want about %.2f", dupFrac, dup())
	}
	// The heavy head: user floor(U·x³) puts half the edges on the lowest
	// eighth of the users.
	head := 0
	for _, e := range stream1 {
		if e.User-100 < users/8 {
			head++
		}
	}
	if f := float64(head) / n; math.Abs(f-0.5) > 0.01 {
		t.Fatalf("lowest eighth of users got %.3f of the edges, want 0.5", f)
	}

	s1, s2 := a.sample(3, 50, 16), b.sample(3, 50, 16)
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatal("accuracy sample differs for the same seed")
	}
	for _, u := range s1 {
		if a.counts[u] < 16 {
			t.Fatalf("sampled user %d has only %d items", u, a.counts[u])
		}
	}
}

func TestQuantileFloorAndFailures(t *testing.T) {
	if minSamples(0.99) != 1000 || minSamples(0.5) != 20 {
		t.Fatalf("floors: p99 %d, p50 %d; want 1000 and 20", minSamples(0.99), minSamples(0.5))
	}
	var l lat
	for i := 0; i < 999; i++ {
		l.add(float64(i))
	}
	if _, err := quantile(l.ms, 0.99, minSamples(0.99)); err == nil {
		t.Fatal("p99 over 999 samples: want a sample-floor error")
	}
	l.add(999)
	if v, err := quantile(l.ms, 0.99, minSamples(0.99)); err != nil || v != 989 {
		t.Fatalf("p99 over 0..999 = %v, %v; want 989", v, err)
	}

	// Failures are +Inf latencies: ten of a thousand leave the p99 finite,
	// eleven push it to +Inf.
	var f lat
	for i := 0; i < 990; i++ {
		f.add(1)
	}
	for i := 0; i < 10; i++ {
		f.fail()
	}
	if v, _ := quantile(f.ms, 0.99, 1); math.IsInf(v, 0) {
		t.Fatal("1% failures made the p99 infinite")
	}
	f.fail()
	if v, _ := quantile(f.ms, 0.99, 1); !math.IsInf(v, 1) {
		t.Fatalf("p99 with >1%% failures = %v, want +Inf", v)
	}
	if f.failed != 11 {
		t.Fatalf("failed = %d, want 11", f.failed)
	}
}

// openLoopAgainst drives an estimate-only open loop (one request every
// 10 ms for 200 ms) against a server that takes stall per request.
func openLoopAgainst(t *testing.T, stall time.Duration) (*run, []float64) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		fmt.Fprintln(w, `{"user":1,"estimate":1}`)
	}))
	defer srv.Close()
	r := &run{seed: 1, d: &daemon{base: srv.URL}}
	start := time.Now().Add(5 * time.Millisecond)
	o := &openLoop{start: start, from: start, end: start.Add(200 * time.Millisecond), period: time.Millisecond}
	lag, err := (&httpLoad{o: o, estEvery: 10 * time.Millisecond, users: 64}).run(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ests.ms) != 20 || r.ests.failed != 0 {
		t.Fatalf("%d estimates, %d failed; want 20 and 0", len(r.ests.ms), r.ests.failed)
	}
	return r, lag
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	r, lag := openLoopAgainst(t, 25*time.Millisecond)
	// A 25 ms server behind a 10 ms schedule falls 15 ms further behind per
	// request: the queue shows up in latency (timed from the due time, not
	// the send) and in the generator's lag.
	first, last := r.ests.ms[0], r.ests.ms[len(r.ests.ms)-1]
	if last < first+200 {
		t.Fatalf("due-time latency went from %.1f to %.1f ms; want it to grow by the backlog (~285 ms)", first, last)
	}
	r.lag = lag
	if p99 := r.lagP99(); p99 < 200 {
		t.Fatalf("lag p99 %.1f ms under a stalling server; want the backlog (~285 ms)", p99)
	}

	calm, calmLag := openLoopAgainst(t, 0)
	calm.lag = calmLag
	if calm.lagP99() >= r.lagP99()/2 {
		t.Fatalf("lag p99 %.1f ms against a prompt server, %.1f against a stalling one", calm.lagP99(), r.lagP99())
	}
}

func TestAlignedWindowSitsMidSlot(t *testing.T) {
	ready := time.Unix(1000, 0)
	d := &daemon{ready: ready}
	for _, c := range []struct{ after, want time.Duration }{
		{0, 1500 * time.Millisecond},
		{1500 * time.Millisecond, 1500 * time.Millisecond},
		{1501 * time.Millisecond, 4500 * time.Millisecond},
		{5 * time.Second, 7500 * time.Millisecond},
	} {
		if got := d.aligned(ready.Add(c.after), 3*time.Second).Sub(ready); got != c.want {
			t.Errorf("aligned(ready+%v) = ready+%v, want ready+%v", c.after, got, c.want)
		}
	}
}

func TestSnapshotReadsIgnoresIngestAndScrapes(t *testing.T) {
	s := scrape{v: map[string]float64{
		`cardserved_http_request_seconds_count{handler="/ingest"}`: 900,
		`cardserved_http_request_seconds_sum{handler="/estimate"}`: 0.5,
		`cardserved_tcp_ack_seconds_count`:                         4000,
		`cardserved_checkpoints_total`:                             0,
	}}
	if n := snapshotReads(s); n != 0 {
		t.Fatalf("ingest only: %g snapshot reads, want 0", n)
	}
	s.v[`cardserved_http_request_seconds_count{handler="/estimate"}`] = 3
	s.v[`cardserved_http_request_seconds_count{handler="/topk"}`] = 2
	s.v[`cardserved_checkpoints_total`] = 1
	if n := snapshotReads(s); n != 6 {
		t.Fatalf("3 estimates, 2 top-k reads and a checkpoint: %g snapshot reads, want 6", n)
	}
}

func TestSecondsFlagOnlyTakesRunSeconds(t *testing.T) {
	var errs bytes.Buffer
	if _, err := parseFlags([]string{"--seconds", fmt.Sprint(runSeconds), "--workload", "ingest_bulk"}, &errs); err != nil {
		t.Fatalf("-seconds %d: %v", runSeconds, err)
	}
	if _, err := parseFlags([]string{"--seconds", "10"}, &errs); err == nil {
		t.Fatal("-seconds 10 accepted: the workloads are laid out for runSeconds only")
	}
}

// TestSmoke runs every workload for about a second at toy sizes against a
// freshly built cardserved and checks that each prints every end-to-end
// metric and a well-formed result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cardserved")
	}
	var out, errs bytes.Buffer
	if code := servebench([]string{"-smoke", "-workload", "all", "-seed", "5"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
	}
	var results []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			var res map[string]any
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			results = append(results, res)
		}
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(workloads))
	}
	for i, res := range results {
		if res["correct"] != true || res["failed"] != 0.0 {
			t.Errorf("%s: correct=%v failed=%v", workloads[i].name, res["correct"], res["failed"])
		}
		metrics := res["metrics"].(map[string]any)
		for _, name := range endToEnd {
			m, ok := metrics[name].(map[string]any)
			if !ok {
				t.Errorf("%s: no %s", workloads[i].name, name)
				continue
			}
			if v, _ := m["value"].(float64); v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", workloads[i].name, name, m["value"])
			}
		}
		if len(metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", workloads[i].name, len(metrics), len(endToEnd))
		}
	}
}
