package bugnet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
)

// TestRemoteTimeTravelSession is the end-to-end time-travel story over
// the wire: a customer-site recorder captures a heap-overflow crash and
// uploads the packed report; the developer opens a remote debug session
// on the triage server, sets a data watchpoint on the corrupted word,
// reverse-continues from the crash straight to the faulting store, and
// inspects registers and memory at that moment — all over the JSON HTTP
// API, with the report blob pinned against store eviction for the
// session's lifetime.
func TestRemoteTimeTravelSession(t *testing.T) {
	// A wrong loop bound (9 over an 8-slot buffer) overflows buf into
	// ptr; the crash dereferences the corrupted pointer.
	const src = `
        .data
buf:    .space 32
ptr:    .word 1024
        .text
main:   li   s0, 0
        la   s1, buf
fill:   slli t0, s0, 2
        add  t0, s1, t0
store:  sw   s0, (t0)
        addi s0, s0, 1
        li   t1, 9
        blt  s0, t1, fill
        la   t2, ptr
        lw   t3, (t2)
boom:   lw   a0, (t3)
`
	img, err := Assemble("overflow.s", src)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, _ := Record(img, MachineConfig{}, Config{IntervalLength: 16})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	blob, err := PackReport(rep)
	if err != nil {
		t.Fatal(err)
	}

	// Developer side: triage service + debug session manager on the one
	// node mux bugnet-serve runs.
	reg := triage.NewImageRegistry()
	reg.Register(img)
	svc, err := triage.New(triage.Config{Dir: t.TempDir(), Workers: 1, Resolver: reg.Resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mgr := timetravel.NewManager(svc, timetravel.ManagerConfig{
		MaxSessions: 4,
		IdleTimeout: time.Hour,
		Engine:      timetravel.Config{CheckpointEvery: 8},
	})
	defer mgr.Close()
	srv := serveNode(t, svc, mgr)

	// Upload the field report.
	resp, err := http.Post(srv.URL+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var ing triage.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	svc.WaitIdle()

	postJSON := func(path string, body any, out any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Open a session on the stored report.
	var info timetravel.SessionInfo
	postJSON("/api/v1/debug/sessions", timetravel.OpenRequest{Report: ing.ID}, &info)
	if info.Fault == nil || info.Fault.Cause == "" {
		t.Fatalf("session fault = %+v", info.Fault)
	}
	if !svc.Store().Pinned(ing.ID) {
		t.Fatal("open session must pin the report blob")
	}
	cmdURL := "/api/v1/debug/sessions/" + info.ID + "/cmd"
	do := func(c timetravel.Command) timetravel.Outcome {
		t.Helper()
		var out timetravel.Outcome
		postJSON(cmdURL, c, &out)
		if out.Error != "" {
			t.Fatalf("cmd %+v: %s", c, out.Error)
		}
		return out
	}

	// Watch the word the crash dereferences, jump to the crash, and
	// reverse-continue to the instruction that corrupted it.
	do(timetravel.Command{Cmd: "watch", Sym: "ptr"})
	out := do(timetravel.Command{Cmd: "seek", Pos: info.Window})
	if !out.Done {
		t.Fatalf("seek to end: %+v", out)
	}
	out = do(timetravel.Command{Cmd: "rcont"})
	if out.Stop != "watchpoint" || out.Symbol != "store" {
		t.Fatalf("rcont = %+v", out)
	}
	if out.Watch == nil || !out.Watch.NewKnown || out.Watch.New != 8 {
		t.Fatalf("watch transition = %+v", out.Watch)
	}

	// At the faulting store: s0 holds the overflowing index 8, and the
	// watched word is still §7.1-unknown (the store has not committed).
	regs := do(timetravel.Command{Cmd: "regs"})
	s0 := ^uint32(0)
	for _, r := range regs.Regs {
		if r.Name == "s0" {
			s0 = r.Value
		}
	}
	if s0 != 8 {
		t.Fatalf("s0 at the faulting store = %d, want 8", s0)
	}
	mem := do(timetravel.Command{Cmd: "mem", Sym: "ptr"})
	if len(mem.Mem) != 1 || mem.Mem[0].Known {
		t.Fatalf("ptr before the store = %+v, want unknown", mem.Mem)
	}
	// One forward step commits the corruption.
	do(timetravel.Command{Cmd: "step"})
	mem = do(timetravel.Command{Cmd: "mem", Sym: "ptr"})
	if len(mem.Mem) != 1 || !mem.Mem[0].Known || mem.Mem[0].Value != 8 {
		t.Fatalf("ptr after the store = %+v, want known 8", mem.Mem)
	}
	bt := do(timetravel.Command{Cmd: "backtrace"})
	if len(bt.Backtrace) == 0 {
		t.Fatal("backtrace empty")
	}

	// Closing the session drops the pin.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/debug/sessions/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if svc.Store().Pinned(ing.ID) {
		t.Fatal("closed session must unpin the report blob")
	}
}
