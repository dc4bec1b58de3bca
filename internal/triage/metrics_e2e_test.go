package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/obs"

	// Linked for its packet/connection series: the e2e scrape asserts the
	// gdb inventory is present even before any RSP client connects,
	// exactly as in a bugnet-serve binary.
	_ "bugnet/internal/gdbstub"

	"bugnet/internal/timetravel"
)

// scrape fetches /metrics and parses every sample line into name{labels}
// → value.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndToEnd drives the full pipeline — upload, triage replay,
// debug session — through an instrumented HTTP server and asserts the
// scrape moves where it should.
func TestMetricsEndToEnd(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	// Parallel interval replay on, so the scrape covers the parreplay pool
	// series alongside the triage ones.
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, Resolver: reg.Resolve,
		ReplayParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mgr := timetravel.NewManager(s, timetravel.ManagerConfig{
		MaxSessions: 2,
		Engine:      timetravel.Config{CheckpointEvery: 64},
	})
	defer mgr.Close()
	srv := httptest.NewServer(httpjson.Instrument(NewHandlerWithDebug(s, mgr), nil))
	defer srv.Close()

	before := scrape(t, srv.URL)

	// Upload one report and let triage replay it.
	resp, err := http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.WaitIdle()

	// Open a debug session over the stored report.
	resp, err = http.Post(srv.URL+"/api/v1/debug/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"report":%q}`, ing.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /debug/sessions: %s: %s", resp.Status, body)
	}
	resp.Body.Close()

	after := scrape(t, srv.URL)

	// The fleet contract: one scrape covers every subsystem. ≥25 distinct
	// series, with all four layers represented.
	if len(after) < 25 {
		t.Errorf("scrape has %d series, want >= 25", len(after))
	}
	for _, prefix := range []string{
		"bugnet_triage_", "bugnet_logstore_", "bugnet_debug_", "bugnet_gdb_", "bugnet_http_",
		"bugnet_parreplay_",
	} {
		found := false
		for name := range after {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series with prefix %q in scrape", prefix)
		}
	}

	// The ingest latency histogram counted our upload.
	if moved := after[`bugnet_triage_ingest_seconds_bucket{le="+Inf"}`] -
		before[`bugnet_triage_ingest_seconds_bucket{le="+Inf"}`]; moved < 1 {
		t.Errorf("ingest histogram count moved by %v, want >= 1", moved)
	}
	if moved := after[`bugnet_triage_ingest_total{result="new"}`] -
		before[`bugnet_triage_ingest_total{result="new"}`]; moved != 1 {
		t.Errorf("new-ingest counter moved by %v, want 1", moved)
	}

	// The session gauge reflects the open debug session.
	if after["bugnet_debug_sessions_open"]-before["bugnet_debug_sessions_open"] != 1 {
		t.Errorf("sessions_open moved by %v, want 1",
			after["bugnet_debug_sessions_open"]-before["bugnet_debug_sessions_open"])
	}

	// Replay verdicts and the replayed-instruction counter moved too.
	if after[`bugnet_triage_verdicts_total{state="done"}`] <= before[`bugnet_triage_verdicts_total{state="done"}`] {
		t.Error("done-verdict counter did not move")
	}

	// The per-report replay latency histogram counted our triage replay.
	if moved := after[`bugnet_triage_replay_seconds_bucket{le="+Inf"}`] -
		before[`bugnet_triage_replay_seconds_bucket{le="+Inf"}`]; moved < 1 {
		t.Errorf("replay histogram count moved by %v, want >= 1", moved)
	}

	// The parallel executor replayed this report's intervals, leaving the
	// pool idle afterward.
	if after["bugnet_parreplay_intervals_total"] <= before["bugnet_parreplay_intervals_total"] {
		t.Error("parreplay interval counter did not move")
	}
	if busy, ok := after["bugnet_parreplay_workers_busy"]; !ok || busy != 0 {
		t.Errorf("workers-busy gauge = %v, %v; want 0 after drain", busy, ok)
	}

	// A fresh report is a verdict-cache miss; eviction and occupancy
	// series are exposed alongside.
	if after[`bugnet_triage_verdict_cache_total{result="miss"}`] <= before[`bugnet_triage_verdict_cache_total{result="miss"}`] {
		t.Error("verdict-cache miss counter did not move")
	}
	for _, series := range []string{
		`bugnet_triage_verdict_cache_total{result="hit"}`,
		"bugnet_triage_verdict_cache_evictions_total",
		"bugnet_triage_verdict_cache_entries",
	} {
		if _, ok := after[series]; !ok {
			t.Errorf("series %q missing from scrape", series)
		}
	}

	// Every metric name obeys the naming convention.
	name := regexp.MustCompile(`^bugnet_[a-z0-9_]+(\{|_bucket\{|$)`)
	for series := range after {
		if !name.MatchString(series) {
			t.Errorf("series %q violates the bugnet_ naming convention", series)
		}
	}
}

// TestHealthzDegradedAndReadyz covers the liveness/readiness split: a
// healthy service answers 200 on both; a sticky store failure flips
// healthz to 503 degraded; a debug manager at capacity flips readyz only.
func TestHealthzDegradedAndReadyz(t *testing.T) {
	img, _, blob := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	mgr := timetravel.NewManager(s, timetravel.ManagerConfig{
		MaxSessions: 1,
		Engine:      timetravel.Config{CheckpointEvery: 64},
	})
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerWithDebug(s, mgr))
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	if code, m := get("/healthz"); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthy healthz = %d %v", code, m)
	}
	if code, m := get("/readyz"); code != http.StatusOK || m["ready"] != true {
		t.Fatalf("healthy readyz = %d %v", code, m)
	}

	// Saturate the debug capacity: readyz flips, healthz does not.
	res, err := s.Ingest(blob)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	sess, err := mgr.Open(res.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if code, m := get("/readyz"); code != http.StatusServiceUnavailable || m["ready"] != false {
		t.Fatalf("at-capacity readyz = %d %v", code, m)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("at-capacity healthz = %d, want 200", code)
	}
	mgr.CloseSession(sess.ID)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after session close = %d, want 200", code)
	}

	// A store failure degrades liveness. Healthy() re-probes the disk, so
	// a fabricated error on a healthy disk would clear itself; fail the
	// probe for real by removing the store root (probeEvery=0 probes on
	// every call).
	s.Store().mu.Lock()
	s.Store().probeEvery = 0
	root := s.Store().root
	s.Store().mu.Unlock()
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	s.Store().fail(fmt.Errorf("disk on fire"))
	code, m := get("/healthz")
	if code != http.StatusServiceUnavailable || m["status"] != "degraded" {
		t.Fatalf("degraded healthz = %d %v", code, m)
	}
	if code, m := get("/readyz"); code != http.StatusServiceUnavailable || m["ready"] != false {
		t.Fatalf("degraded readyz = %d %v, want 503 not-ready", code, m)
	} else if rs, ok := m["reasons"].([]any); !ok || len(rs) == 0 {
		t.Fatalf("degraded readyz reasons = %v, want a non-empty list", m["reasons"])
	}
	// A degraded POST sheds with 503 instead of acking a write the store
	// would lose.
	resp, err := http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST = %d, want 503", resp.StatusCode)
	}

	// Healing the disk brings the node back without a restart: the next
	// Healthy() probe succeeds and clears the degraded state. The spool
	// lives under the store root, so restore it too.
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(s.spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if code, m := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healed healthz = %d %v, want 200", code, m)
	}
	if code, m := get("/readyz"); code != http.StatusOK || m["ready"] != true {
		t.Fatalf("healed readyz = %d %v, want 200 ready", code, m)
	}
}

// TestRequestIDMiddleware verifies the instrumentation boundary: ids are
// minted (or propagated) and the request counter moves.
func TestRequestIDMiddleware(t *testing.T) {
	img, _, _ := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	srv := httptest.NewServer(httpjson.Instrument(NewHandler(s), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-id-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id != "upstream-id-7" {
		t.Fatalf("propagated X-Request-ID = %q", id)
	}
}

// TestRecorderCountersAllocFree proves the batched counter export the
// recorder wire path uses allocates nothing: the exact obs calls commit()
// makes, measured under AllocsPerRun.
func TestRecorderCountersAllocFree(t *testing.T) {
	c := obs.Default.Counter("bugnet_test_export_total", "test series")
	h := obs.Default.Histogram("bugnet_test_export_seconds", "test series")
	if avg := testing.AllocsPerRun(500, func() {
		c.Add(100)
		h.Observe(42 * time.Microsecond)
	}); avg != 0 {
		t.Fatalf("export-path metric ops allocate %.1f per run, want 0", avg)
	}
}
