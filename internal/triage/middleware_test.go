package triage

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/obs"
)

// TestRequestIDMiddleware verifies the instrumentation boundary: ids are
// minted (or propagated) and the request counter moves.
func TestRequestIDMiddleware(t *testing.T) {
	img, _, _ := recordBlob(t)
	reg := NewImageRegistry()
	reg.Register(img)
	s := newService(t, reg)
	mux := http.NewServeMux()
	RegisterRoutes(mux, s)
	srv := httptest.NewServer(httpjson.Instrument(mux, nil))
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
