package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/stream"
)

// spoolFiles returns the spool directory's file names, sorted.
func spoolFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestSpoolRetention: every checkpoint leaves current.ckpt plus a history
// entry, and history beyond the newest Retain is pruned after each
// successful write — a long-lived daemon's spool stays bounded.
func TestSpoolRetention(t *testing.T) {
	spool := t.TempDir()
	cfg := testConfig(spool)
	cfg.Retain = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.submit([]stream.Edge{{User: 1, Item: 2}}, true)
	for i := 0; i < 5; i++ {
		s.submit([]stream.Edge{{User: 1, Item: uint64(10 + i)}}, true)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"ckpt-000000000004.ckpt", "ckpt-000000000005.ckpt", "current.ckpt"}
	if got := spoolFiles(t, spool); !equalStrings(got, want) {
		t.Fatalf("after 5 checkpoints with Retain=2: %v, want %v", got, want)
	}
	// current.ckpt and the newest history entry are the same checkpoint.
	cur, err := os.ReadFile(filepath.Join(spool, "current.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := os.ReadFile(filepath.Join(spool, "ckpt-000000000005.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cur) != string(hist) {
		t.Fatal("newest history entry differs from current.ckpt")
	}
	s.cfg.SpoolDir = "" // skip the shutdown checkpoint
	s.Close()

	// A restart resumes the sequence past the retained files instead of
	// overwriting them.
	cfg2 := testConfig(spool)
	cfg2.Retain = 2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Restored() {
		t.Fatal("restart did not restore")
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = []string{"ckpt-000000000005.ckpt", "ckpt-000000000006.ckpt", "current.ckpt"}
	if got := spoolFiles(t, spool); !equalStrings(got, want) {
		t.Fatalf("after restart checkpoint: %v, want %v", got, want)
	}
	s2.cfg.SpoolDir = ""
	s2.Close()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpoolRestoreFromHistory: if only the current.ckpt pointer file is
// lost, startup falls back to the newest retained history entry.
func TestSpoolRestoreFromHistory(t *testing.T) {
	spool := t.TempDir()
	s, err := New(testConfig(spool))
	if err != nil {
		t.Fatal(err)
	}
	s.submit([]stream.Edge{{User: 42, Item: 7}}, true)
	if err := s.Close(); err != nil { // final checkpoint
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(spool, "current.ckpt")); err != nil {
		t.Fatal(err)
	}
	s2, err := New(testConfig(spool))
	if err != nil {
		t.Fatalf("restore from history: %v", err)
	}
	if !s2.Restored() || s2.Estimator().NumUsers() != 1 {
		t.Fatalf("history fallback lost state (restored=%v users=%d)",
			s2.Restored(), s2.Estimator().NumUsers())
	}
	s2.cfg.SpoolDir = ""
	s2.Close()
}

// TestSpoolRetentionWithoutHardlinks forces the no-hardlink fallback
// (filesystems like FAT/exFAT, some network and FUSE mounts, reject
// link(2)) and asserts the retention contract is preserved byte for byte:
// every checkpoint still leaves a history entry identical to current.ckpt,
// pruning still bounds the spool, and a restart still restores from the
// copied history when the pointer file is lost.
func TestSpoolRetentionWithoutHardlinks(t *testing.T) {
	prev := linkFile
	linkFile = func(oldname, newname string) error {
		return &os.LinkError{Op: "link", Old: oldname, New: newname, Err: errors.New("operation not permitted (forced by test)")}
	}
	t.Cleanup(func() { linkFile = prev })

	spool := t.TempDir()
	cfg := testConfig(spool)
	cfg.Retain = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.submit([]stream.Edge{{User: 9, Item: uint64(100 + i)}}, true)
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d with hardlinks disabled: %v", i, err)
		}
	}
	want := []string{"ckpt-000000000003.ckpt", "ckpt-000000000004.ckpt", "current.ckpt"}
	if got := spoolFiles(t, spool); !equalStrings(got, want) {
		t.Fatalf("fallback retention: %v, want %v", got, want)
	}
	cur, err := os.ReadFile(filepath.Join(spool, "current.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := os.ReadFile(filepath.Join(spool, "ckpt-000000000004.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cur) != string(hist) {
		t.Fatal("copied history entry differs from current.ckpt")
	}
	// The copy must be an independent file, not a link: rewriting
	// current.ckpt must not change the history entry.
	if st, err := os.Stat(filepath.Join(spool, "ckpt-000000000004.ckpt")); err != nil || st.Size() == 0 {
		t.Fatalf("history entry missing or empty: %v", err)
	}
	s.submit([]stream.Edge{{User: 10, Item: 1}}, true)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hist2, err := os.ReadFile(filepath.Join(spool, "ckpt-000000000004.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(hist2) != string(hist) {
		t.Fatal("older history entry changed when a newer checkpoint was written")
	}
	s.cfg.SpoolDir = "" // skip the shutdown checkpoint
	s.Close()

	// Restore still works from a copied (non-linked) history entry when
	// only current.ckpt is lost.
	if err := os.Remove(filepath.Join(spool, "current.ckpt")); err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(spool)
	cfg2.Retain = 2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("restore from copied history: %v", err)
	}
	if !s2.Restored() || s2.Estimator().NumUsers() < 2 {
		t.Fatalf("copied-history fallback lost state (restored=%v users=%d)",
			s2.Restored(), s2.Estimator().NumUsers())
	}
	s2.cfg.SpoolDir = ""
	s2.Close()
}

func TestSpoolRetainConfigValidation(t *testing.T) {
	cfg := testConfig("")
	cfg.Retain = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative Retain accepted")
	}
}

// usersResponse mirrors the /users JSON document.
type usersResponse struct {
	Users []struct {
		User     uint64  `json:"user"`
		Estimate float64 `json:"estimate"`
	} `json:"users"`
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
}

// TestServerUsersStreaming: /users streams the full per-user listing in
// deterministic order, consistent with /estimate, and ?limit bounds the
// entries while still reporting the full count.
func TestServerUsersStreaming(t *testing.T) {
	_, ts := newTestServer(t, testConfig(""))
	var sb strings.Builder
	for u := 1; u <= 50; u++ {
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&sb, "%d %d\n", u, i)
		}
	}
	if code, _ := post(t, ts.URL+"/ingest?wait=1", sb.String()); code != http.StatusOK {
		t.Fatal("ingest failed")
	}

	code, body := get(t, ts.URL+"/users")
	if code != http.StatusOK {
		t.Fatalf("/users returned %d: %s", code, body)
	}
	var resp usersResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/users is not valid JSON: %v\n%s", err, body)
	}
	if resp.Truncated || resp.Count != len(resp.Users) || resp.Count < 45 {
		t.Fatalf("count=%d entries=%d truncated=%v", resp.Count, len(resp.Users), resp.Truncated)
	}
	for _, e := range resp.Users {
		_, est := get(t, fmt.Sprintf("%s/estimate?user=%d", ts.URL, e.User))
		if got := jsonNumber(t, est, "estimate"); got != e.Estimate {
			t.Fatalf("user %d: /users says %v, /estimate says %v", e.User, e.Estimate, got)
		}
	}
	// Two reads stream identically (the deterministic-order contract).
	_, body2 := get(t, ts.URL+"/users")
	if body != body2 {
		t.Fatal("/users output not reproducible")
	}

	code, body = get(t, ts.URL+"/users?limit=7")
	if code != http.StatusOK {
		t.Fatalf("/users?limit returned %d", code)
	}
	var lim usersResponse
	if err := json.Unmarshal([]byte(body), &lim); err != nil {
		t.Fatalf("limited /users is not valid JSON: %v", err)
	}
	if len(lim.Users) != 7 || lim.Count != resp.Count || !lim.Truncated {
		t.Fatalf("limit=7: entries=%d count=%d truncated=%v", len(lim.Users), lim.Count, lim.Truncated)
	}
	for i, e := range lim.Users {
		if e != resp.Users[i] {
			t.Fatalf("limited entry %d differs from full listing", i)
		}
	}

	if code, _ := get(t, ts.URL+"/users?limit=x"); code != http.StatusBadRequest {
		t.Fatal("bad limit accepted")
	}
	// limit=0 is the pure count query: exact count, no entries, and it
	// must short-circuit the sorted enumeration (not observable here, but
	// the contract is the response shape).
	code, body = get(t, ts.URL+"/users?limit=0")
	if code != http.StatusOK {
		t.Fatalf("limit=0 returned %d: %s", code, body)
	}
	var zero usersResponse
	if err := json.Unmarshal([]byte(body), &zero); err != nil {
		t.Fatalf("limit=0 response not valid JSON: %v", err)
	}
	if len(zero.Users) != 0 || zero.Count != resp.Count || !zero.Truncated {
		t.Fatalf("limit=0: entries=%d count=%d truncated=%v", len(zero.Users), zero.Count, zero.Truncated)
	}
}

// TestCheckpointFailureCounted: a checkpoint that cannot be written is
// refused loudly — POST /checkpoint answers 500 — and counted in
// cardserved_checkpoint_failures_total, while cardserved_checkpoints_total
// keeps counting only checkpoints that landed. The spool directory is
// swapped for a regular file after New, so every write under it fails.
func TestCheckpointFailureCounted(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool")
	s, ts := newTestServer(t, testConfig(spool))
	ingest(t, ts.URL, zipfEdges(3, 2000, 50, 200), true)
	if code, body := post(t, ts.URL+"/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("healthy checkpoint returned %d: %s", code, body)
	}
	landed := scrapeCounter(t, ts.URL, "cardserved_checkpoints_total")
	if landed != 1 || scrapeCounter(t, ts.URL, "cardserved_checkpoint_failures_total") != 0 {
		t.Fatalf("after one good checkpoint: %d landed, want 1 and no failures", landed)
	}

	if err := os.RemoveAll(spool); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/checkpoint", ""); code != http.StatusInternalServerError {
		t.Fatalf("checkpoint into a non-directory spool returned %d: %s", code, body)
	}
	if got := scrapeCounter(t, ts.URL, "cardserved_checkpoint_failures_total"); got != 1 {
		t.Fatalf("cardserved_checkpoint_failures_total = %d, want 1", got)
	}
	if got := scrapeCounter(t, ts.URL, "cardserved_checkpoints_total"); got != landed {
		t.Fatalf("cardserved_checkpoints_total moved from %d to %d on a failed checkpoint", landed, got)
	}
	// The shutdown checkpoint fails the same way, is counted, and surfaces
	// as Close's error.
	if err := s.Close(); err == nil {
		t.Fatal("Close reported success although its final checkpoint could not be written")
	}
	if got := s.ckptFailures.Value(); got != 2 {
		t.Fatalf("after the failed shutdown checkpoint: %d failures, want 2", got)
	}
}
