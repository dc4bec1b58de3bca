package timetravel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
)

// fakeSource serves one in-memory report under the id "r1" and counts
// open pins.
type fakeSource struct {
	rep  *core.CrashReport
	img  *asm.Image
	pins atomic.Int32
}

func (f *fakeSource) OpenReport(id string) (*core.CrashReport, *asm.Image, func(), error) {
	if id != "r1" {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownReport, id)
	}
	f.pins.Add(1)
	var released atomic.Bool
	return f.rep, f.img, func() {
		if released.CompareAndSwap(false, true) {
			f.pins.Add(-1)
		}
	}, nil
}

func newFakeSource(t testing.TB) *fakeSource {
	t.Helper()
	rep, img := recordCrash(t, corruptorProgram, 16)
	return &fakeSource{rep: rep, img: img}
}

func TestManagerLifecycleAndCap(t *testing.T) {
	src := newFakeSource(t)
	m := NewManager(src, ManagerConfig{MaxSessions: 2, IdleTimeout: time.Hour})
	defer m.Close()

	s1, err := m.Open("r1", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = m.Open("r1", -1); err != nil {
		t.Fatal(err)
	}
	if src.pins.Load() != 2 {
		t.Fatalf("pins = %d", src.pins.Load())
	}
	// Cap reached.
	if _, err = m.Open("r1", -1); err == nil {
		t.Fatal("expected session-limit error")
	}
	// Unknown report.
	if _, err = m.Open("nope", -1); err == nil {
		t.Fatal("expected unknown-report error")
	}
	// Closing frees a slot and the pin.
	if !m.CloseSession(s1.ID) {
		t.Fatal("close failed")
	}
	if src.pins.Load() != 1 {
		t.Fatalf("pins after close = %d", src.pins.Load())
	}
	if _, err = m.Open("r1", -1); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	// Commands on a closed session fail cleanly.
	if out := s1.Do(Command{Cmd: "where"}); out.Error == "" {
		t.Fatal("closed session must refuse commands")
	}
	m.Close()
	if src.pins.Load() != 0 {
		t.Fatalf("pins after manager close = %d", src.pins.Load())
	}
	if _, err = m.Open("r1", -1); err == nil {
		t.Fatal("open after Close must fail")
	}
}

func TestManagerIdleExpiry(t *testing.T) {
	src := newFakeSource(t)
	m := NewManager(src, ManagerConfig{IdleTimeout: time.Minute})
	defer m.Close()
	clock := time.Now()
	m.now = func() time.Time { return clock }

	s, err := m.Open("r1", -1)
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if n := m.Sweep(); n != 0 {
		t.Fatalf("swept %d sessions early", n)
	}
	// Activity refreshes the deadline.
	s.Do(Command{Cmd: "step"})
	clock = clock.Add(45 * time.Second)
	if n := m.Sweep(); n != 0 {
		t.Fatalf("active session swept (%d)", n)
	}
	clock = clock.Add(time.Hour)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if src.pins.Load() != 0 {
		t.Fatalf("pins after expiry = %d", src.pins.Load())
	}
	if _, ok := m.Get(s.ID); ok {
		t.Fatal("expired session still listed")
	}
}

func TestManagerRejectsOversizedWindow(t *testing.T) {
	src := newFakeSource(t)
	m := NewManager(src, ManagerConfig{MaxWindow: 3})
	defer m.Close()
	if _, err := m.Open("r1", -1); err == nil {
		t.Fatal("oversized window must be refused")
	}
	if src.pins.Load() != 0 {
		t.Fatalf("refused open leaked a pin (%d)", src.pins.Load())
	}
}

func TestHTTPDebugAPI(t *testing.T) {
	src := newFakeSource(t)
	m := NewManager(src, ManagerConfig{MaxSessions: 2, IdleTimeout: time.Hour})
	defer m.Close()
	mux := http.NewServeMux()
	RegisterRoutes(mux, m)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path string, body any, want int) *http.Response {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %s, want %d", path, resp.Status, want)
		}
		return resp
	}

	// Open.
	resp := post("/api/v1/debug/sessions", OpenRequest{Report: "r1"}, http.StatusCreated)
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.ID == "" || info.Window == 0 || info.Fault == nil {
		t.Fatalf("open info = %+v", info)
	}

	// Unknown report is 404; garbage is 400.
	post("/api/v1/debug/sessions", OpenRequest{Report: "nope"}, http.StatusNotFound).Body.Close()
	resp, err := http.Post(srv.URL+"/api/v1/debug/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage open: %s", resp.Status)
	}

	// Command round trip.
	resp = post("/api/v1/debug/sessions/"+info.ID+"/cmd", Command{Cmd: "step", N: 5}, http.StatusOK)
	var out Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Pos != 5 || out.Stop != "step" {
		t.Fatalf("step outcome = %+v", out)
	}

	// Listing.
	resp, err = http.Get(srv.URL + "/api/v1/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Pos != 5 {
		t.Fatalf("list = %+v", list)
	}

	// Second session hits the cap at three.
	post("/api/v1/debug/sessions", OpenRequest{Report: "r1"}, http.StatusCreated).Body.Close()
	post("/api/v1/debug/sessions", OpenRequest{Report: "r1"}, http.StatusTooManyRequests).Body.Close()

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/debug/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", resp.Status)
	}
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %s", resp.Status)
	}

	// Commands against a deleted session 404.
	post("/api/v1/debug/sessions/"+info.ID+"/cmd", Command{Cmd: "where"}, http.StatusNotFound).Body.Close()
}
