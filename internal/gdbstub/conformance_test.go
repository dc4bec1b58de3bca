package gdbstub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/timetravel"
)

// startServer brings up the full stack a bugnet-serve -gdb deployment
// runs: a session manager over a stored report, the RSP listener, and the
// JSON debug API over the same manager.
func startServer(t *testing.T, maxSessions int, defaultReport string) (addr string, mgr *timetravel.Manager, jsonURL string, img *asm.Image) {
	t.Helper()
	rep, img := recordCorruptor(t)
	mgr = timetravel.NewManager(&fakeSource{rep: rep, img: img}, timetravel.ManagerConfig{
		MaxSessions: maxSessions,
		IdleTimeout: time.Hour,
		Engine:      timetravel.Config{CheckpointEvery: 8},
	})
	t.Cleanup(mgr.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Manager: mgr, DefaultReport: defaultReport})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	js := httptest.NewServer(timetravel.NewHandler(mgr))
	t.Cleanup(js.Close)
	return l.Addr().String(), mgr, js.URL, img
}

// jsonSession drives the JSON debug API — the reference the RSP stub must
// agree with.
type jsonSession struct {
	t    *testing.T
	base string
	id   string
}

func openJSONSession(t *testing.T, base, report string) *jsonSession {
	t.Helper()
	body, _ := json.Marshal(timetravel.OpenRequest{Report: report})
	resp, err := http.Post(base+"/api/v1/debug/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open JSON session: %s", resp.Status)
	}
	var info timetravel.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return &jsonSession{t: t, base: base, id: info.ID}
}

func (j *jsonSession) do(c timetravel.Command) timetravel.Outcome {
	j.t.Helper()
	body, _ := json.Marshal(c)
	resp, err := http.Post(j.base+"/api/v1/debug/sessions/"+j.id+"/cmd", "application/json", bytes.NewReader(body))
	if err != nil {
		j.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out timetravel.Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		j.t.Fatal(err)
	}
	if out.Error != "" {
		j.t.Fatalf("JSON command %+v: %s", c, out.Error)
	}
	return out
}

// TestRSPConformance is the end-to-end acceptance script: a scripted RSP
// client attaches to an ingested crash report, sets a watchpoint on the
// corrupted word, reverse-continues from the end of the window, and lands
// on the mutating store with a T05watch: stop whose PC and registers
// match what the JSON debug API reports for the same report.
func TestRSPConformance(t *testing.T) {
	addr, _, jsonURL, img := startServer(t, 8, "")
	ptr := img.MustSymbol("ptr")
	store := img.MustSymbol("store")

	cl, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sup, err := cl.Exchange("qSupported:multiprocess+;swbreak+")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sup, "ReverseStep+") || !strings.Contains(sup, "ReverseContinue+") {
		t.Fatalf("qSupported = %q: reverse execution not advertised", sup)
	}
	if err := cl.StartNoAck(); err != nil {
		t.Fatal(err)
	}
	if rep, err := cl.Exchange("!"); err != nil || rep != "OK" {
		t.Fatalf("extended mode: %q, %v", rep, err)
	}
	rep, err := cl.Exchange("vAttach;r1")
	if err != nil || !strings.HasPrefix(rep, "T05") {
		t.Fatalf("vAttach = %q, %v", rep, err)
	}

	// The watchpoint → reverse-continue script, over the wire.
	if rep, err = cl.Exchange(fmt.Sprintf("Z2,%x,4", ptr)); err != nil || rep != "OK" {
		t.Fatalf("Z2 = %q, %v", rep, err)
	}
	if rep, err = cl.Exchange("c"); err != nil {
		t.Fatal(err)
	}
	if a, ok := StopWatchAddr(rep); !ok || a != ptr&^3 {
		t.Fatalf("forward watch stop = %q", rep)
	}
	if rep, err = cl.Exchange("c"); err != nil || !strings.Contains(rep, "replaylog:end") {
		t.Fatalf("c to end = %q, %v", rep, err)
	}
	if rep, err = cl.Exchange("bc"); err != nil {
		t.Fatal(err)
	}
	if a, ok := StopWatchAddr(rep); !ok || a != ptr&^3 {
		t.Fatalf("bc stop = %q, want watch:%x", rep, ptr&^3)
	}
	rspPC, ok := StopPC(rep)
	if !ok || rspPC != store {
		t.Fatalf("bc landed at %#x, want the mutating store %#x (reply %q)", rspPC, store, rep)
	}
	rspRegs, rspGPC, err := cl.ReadRegisters()
	if err != nil {
		t.Fatal(err)
	}

	// The same script over the JSON API must land in the same state.
	js := openJSONSession(t, jsonURL, "r1")
	js.do(timetravel.Command{Cmd: "watch", Addr: ptr})
	if out := js.do(timetravel.Command{Cmd: "cont"}); out.Stop != "watchpoint" {
		t.Fatalf("JSON forward stop = %q", out.Stop)
	}
	if out := js.do(timetravel.Command{Cmd: "cont"}); out.Stop != "end-of-window" {
		t.Fatalf("JSON cont = %q", out.Stop)
	}
	ref := js.do(timetravel.Command{Cmd: "rcont"})
	if ref.Stop != "watchpoint" || ref.Watch == nil || ref.Watch.Addr != ptr&^3 {
		t.Fatalf("JSON rcont = %+v", ref)
	}
	if rspPC != ref.PC {
		t.Fatalf("PC: RSP %#x vs JSON %#x", rspPC, ref.PC)
	}
	refRegs := js.do(timetravel.Command{Cmd: "regs"})
	if rspGPC != refRegs.PC {
		t.Fatalf("g PC %#x vs JSON %#x", rspGPC, refRegs.PC)
	}
	for i, r := range refRegs.Regs {
		if rspRegs[i] != r.Value {
			t.Fatalf("register %s: RSP %#x vs JSON %#x", r.Name, rspRegs[i], r.Value)
		}
	}

	// §7.1 over the wire: at the pre-commit stop the corrupted word is
	// still unavailable, and known memory reads back byte-exactly.
	if rep, err = cl.Exchange(fmt.Sprintf("m%x,4", ptr)); err != nil || rep != "xxxxxxxx" {
		t.Fatalf("m ptr = %q, %v", rep, err)
	}
	buf := img.MustSymbol("buf")
	if rep, err = cl.Exchange(fmt.Sprintf("m%x,4", buf+4)); err != nil || rep != "01000000" {
		t.Fatalf("m buf[1] = %q, %v", rep, err)
	}
	if rep, err = cl.Exchange("D"); err != nil || rep != "OK" {
		t.Fatalf("D = %q, %v", rep, err)
	}
}

// TestRSPDefaultReportAttach is the plain "target remote" flow: gdb never
// names a process, so the connection lands on -gdb-report.
func TestRSPDefaultReportAttach(t *testing.T) {
	addr, mgr, _, _ := startServer(t, 8, "r1")
	cl, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Exchange("?")
	if err != nil || !strings.HasPrefix(rep, "T05") {
		t.Fatalf("? = %q, %v", rep, err)
	}
	if mgr.Count() != 1 {
		t.Fatalf("sessions = %d", mgr.Count())
	}
	// Closing the socket without D frees the slot.
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect leaked %d sessions", mgr.Count())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRSPIdleDeadlineFollowsManager: the stub has no idle timeout of its
// own. A connection that goes quiet past the manager's is closed, and its
// session slot freed, without waiting for the janitor's next sweep.
func TestRSPIdleDeadlineFollowsManager(t *testing.T) {
	rep, img := recordCorruptor(t)
	mgr := timetravel.NewManager(&fakeSource{rep: rep, img: img}, timetravel.ManagerConfig{
		IdleTimeout: 200 * time.Millisecond,
	})
	t.Cleanup(mgr.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Manager: mgr, DefaultReport: "r1"})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	cl, err := Dial(l.Addr().String(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if rep, err := cl.Exchange("?"); err != nil || !strings.HasPrefix(rep, "T05") {
		t.Fatalf("? = %q, %v", rep, err)
	}
	if mgr.Count() != 1 {
		t.Fatalf("sessions = %d", mgr.Count())
	}
	deadline := time.Now().Add(time.Second)
	cl.c.SetReadDeadline(deadline)
	if b, err := cl.br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection still open after a second: read %q, %v", b, err)
	}
	for mgr.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection left %d sessions open", mgr.Count())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRSPConcurrentConnections multiplexes concurrent RSP debuggers over
// the session manager: every connection runs the full watch →
// reverse-continue script in parallel, the live-session count never
// exceeds the cap, and the connection past the cap is refused with an
// E-reply rather than a hang or a crash.
func TestRSPConcurrentConnections(t *testing.T) {
	const cap = 4
	addr, mgr, _, img := startServer(t, cap, "")
	ptr := img.MustSymbol("ptr")
	store := img.MustSymbol("store")

	clients := make([]*Client, cap)
	for i := range clients {
		cl, err := Dial(addr, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.StartNoAck(); err != nil {
			t.Fatal(err)
		}
		if rep, err := cl.Exchange("vAttach;r1"); err != nil || !strings.HasPrefix(rep, "T05") {
			t.Fatalf("client %d attach = %q, %v", i, rep, err)
		}
		clients[i] = cl
	}
	if n := mgr.Count(); n != cap {
		t.Fatalf("sessions after attach fan-in = %d, want %d", n, cap)
	}

	// One connection over the cap is turned away, politely.
	over, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if rep, err := over.Exchange("vAttach;r1"); err != nil || rep != errCapacity {
		t.Fatalf("over-cap attach = %q, %v", rep, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, cap)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: %s", i, fmt.Sprintf(format, args...))
			}
			if rep, err := cl.Exchange(fmt.Sprintf("Z2,%x,4", ptr)); err != nil || rep != "OK" {
				fail("Z2 = %q, %v", rep, err)
				return
			}
			if rep, err := cl.Exchange("c"); err != nil || !strings.Contains(rep, "watch:") {
				fail("c = %q, %v", rep, err)
				return
			}
			if rep, err := cl.Exchange("c"); err != nil || !strings.Contains(rep, "replaylog:end") {
				fail("c end = %q, %v", rep, err)
				return
			}
			rep, err := cl.Exchange("bc")
			if err != nil {
				fail("bc: %v", err)
				return
			}
			if pc, ok := StopPC(rep); !ok || pc != store {
				fail("bc pc = %q", rep)
				return
			}
			if rep, err := cl.Exchange("D"); err != nil || rep != "OK" {
				fail("D = %q, %v", rep, err)
			}
		}(i, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := mgr.Count(); n != 0 {
		t.Fatalf("sessions after detach = %d", n)
	}
}
