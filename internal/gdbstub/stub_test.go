package gdbstub

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/cache"
	"bugnet/internal/core"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/timetravel"
)

// corruptorProgram is the canonical time-travel scenario (shared shape
// with the timetravel tests): a loop bound of 9 overflows the 8-slot buf,
// the 9th store corrupts ptr, and the crash dereferences it.
const corruptorProgram = `
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

// fakeSource serves the recorded corruptor report under the id "r1".
type fakeSource struct {
	rep *core.CrashReport
	img *asm.Image
}

func (f *fakeSource) OpenReport(id string) (*core.CrashReport, *asm.Image, func(), error) {
	if id != "r1" {
		return nil, nil, nil, fmt.Errorf("%w: %q", timetravel.ErrUnknownReport, id)
	}
	return f.rep, f.img, func() {}, nil
}

// summerProgram loads every word of buf in a loop, so each interval of its
// window logs values, then crashes on a null load.
const summerProgram = `
        .data
buf:    .word 1, 2, 3, 4, 5, 6, 7, 8
        .text
main:   li   s0, 0
        la   s1, buf
        li   s2, 0
loop:   slli t0, s0, 2
        add  t0, s1, t0
        lw   t1, (t0)
        add  s2, s2, t1
        addi s0, s0, 1
        li   t2, 8
        blt  s0, t2, loop
        li   t3, 0
        lw   a0, (t3)
`

func recordCorruptor(t testing.TB) (*core.CrashReport, *asm.Image) {
	t.Helper()
	return recordProgram(t, corruptorProgram)
}

// recordProgram records src at 16-instruction intervals; it must crash.
func recordProgram(t testing.TB, src string) (*core.CrashReport, *asm.Image) {
	t.Helper()
	img := asm.MustAssemble("gdbstub.s", src)
	res, rep, _ := core.Record(img, kernel.Config{}, core.Config{
		IntervalLength: 16,
		Cache: cache.Config{
			L1: cache.LevelConfig{SizeBytes: 1 << 10, BlockBytes: 32, Assoc: 2},
			L2: cache.LevelConfig{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 4},
		},
	})
	if res.Crash == nil {
		t.Fatal("program did not crash")
	}
	return rep, img
}

// newTestStub builds a manager over the corruptor report and a detached
// conn for driving the dispatcher without a socket.
func newTestStub(t testing.TB, maxSessions int, defaultReport string) (*conn, *timetravel.Manager, *asm.Image) {
	t.Helper()
	rep, img := recordCorruptor(t)
	mgr := timetravel.NewManager(&fakeSource{rep: rep, img: img}, timetravel.ManagerConfig{
		MaxSessions: maxSessions,
		IdleTimeout: time.Hour,
		Engine:      timetravel.Config{CheckpointEvery: 8},
	})
	t.Cleanup(mgr.Close)
	srv := New(Config{Manager: mgr, DefaultReport: defaultReport})
	return &conn{srv: srv}, mgr, img
}

func handleStr(t *testing.T, cn *conn, payload string) string {
	t.Helper()
	reply, kill := cn.handle([]byte(payload))
	if kill {
		t.Fatalf("packet %q killed the connection", payload)
	}
	return reply
}

func TestStubHandshakePackets(t *testing.T) {
	cn, _, _ := newTestStub(t, 2, "r1")
	sup := handleStr(t, cn, "qSupported:multiprocess+;xmlRegisters=i386")
	for _, want := range []string{"ReverseStep+", "ReverseContinue+", "qXfer:features:read+", "QStartNoAckMode+"} {
		if !strings.Contains(sup, want) {
			t.Fatalf("qSupported reply %q missing %s", sup, want)
		}
	}
	if got := handleStr(t, cn, "!"); got != "OK" {
		t.Fatalf("! = %q", got)
	}
	if got := handleStr(t, cn, "qAttached"); got != "1" {
		t.Fatalf("qAttached = %q", got)
	}
	if got := handleStr(t, cn, "Hg1"); got != "OK" {
		t.Fatalf("Hg1 = %q", got)
	}
	if got := handleStr(t, cn, "qC"); got != "QC1" {
		t.Fatalf("qC = %q", got)
	}
	if got := handleStr(t, cn, "vMustReplyEmpty"); got != "" {
		t.Fatalf("vMustReplyEmpty = %q", got)
	}
	if got := handleStr(t, cn, "qBogusQuery"); got != "" {
		t.Fatalf("unknown query = %q", got)
	}
	handleStr(t, cn, "QStartNoAckMode")
	if !cn.startNoAck {
		t.Fatal("QStartNoAckMode did not arm the switch")
	}
}

func TestStubTargetXML(t *testing.T) {
	cn, _, _ := newTestStub(t, 2, "r1")
	var got strings.Builder
	for off := 0; ; {
		rep := handleStr(t, cn, fmt.Sprintf("qXfer:features:read:target.xml:%x,40", off))
		if rep == "" || rep[0] != 'm' && rep[0] != 'l' {
			t.Fatalf("qXfer reply %q", rep)
		}
		got.WriteString(rep[1:])
		off += len(rep) - 1
		if rep[0] == 'l' {
			break
		}
	}
	if got.String() != targetXML() {
		t.Fatalf("reassembled target.xml differs:\n%s", got.String())
	}
	for _, want := range []string{"riscv:rv32", `name="sp"`, `name="pc"`, `regnum="32"`} {
		if !strings.Contains(got.String(), want) {
			t.Fatalf("target.xml missing %s", want)
		}
	}
	if rep := handleStr(t, cn, "qXfer:features:read:wrong.xml:0,40"); rep != "E00" {
		t.Fatalf("bad annex = %q", rep)
	}
}

func TestStubAttachErrors(t *testing.T) {
	cn, mgr, _ := newTestStub(t, 1, "")
	// No session, no default report: session-needing packets say so.
	if got := handleStr(t, cn, "g"); got != errNoSession {
		t.Fatalf("g without session = %q", got)
	}
	if got := handleStr(t, cn, "vAttach;deadbeef"); got != errNoSession {
		t.Fatalf("unknown report = %q", got)
	}
	if got := handleStr(t, cn, "vAttach;"); got != errMalformed {
		t.Fatalf("empty report = %q", got)
	}
	// Fill the manager's only slot; the attach must surface the cap.
	other, err := mgr.Open("r1", -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := handleStr(t, cn, "vAttach;r1"); got != errCapacity {
		t.Fatalf("cap-limited attach = %q", got)
	}
	mgr.CloseSession(other.ID)
	if got := handleStr(t, cn, "vAttach;r1"); !strings.HasPrefix(got, "T05") {
		t.Fatalf("attach = %q", got)
	}
	// Re-attaching releases the old slot instead of leaking it.
	if got := handleStr(t, cn, "vAttach;r1"); !strings.HasPrefix(got, "T05") {
		t.Fatalf("re-attach = %q", got)
	}
	if n := mgr.Count(); n != 1 {
		t.Fatalf("re-attach leaked sessions: %d live", n)
	}
}

func TestStubRegistersAndMemory(t *testing.T) {
	cn, _, img := newTestStub(t, 2, "r1")
	// Run the whole window: buf and ptr are known, everything else is not.
	if rep := handleStr(t, cn, "c"); !strings.Contains(rep, "replaylog:end") {
		t.Fatalf("c to end = %q", rep)
	}
	g := handleStr(t, cn, "g")
	if len(g) != (pcRegNum+1)*8 {
		t.Fatalf("g reply holds %d chars, want %d", len(g), (pcRegNum+1)*8)
	}
	// p for the PC (reg 32) agrees with the g block's last word.
	if p := handleStr(t, cn, fmt.Sprintf("p%x", pcRegNum)); p != g[len(g)-8:] {
		t.Fatalf("p pc = %q, g tail = %q", p, g[len(g)-8:])
	}
	if p := handleStr(t, cn, "p21"); p != errMalformed {
		t.Fatalf("out-of-range register = %q", p)
	}
	buf := img.MustSymbol("buf")
	ptr := img.MustSymbol("ptr")
	// buf[1] was stored 1: little-endian bytes 01 00 00 00.
	if m := handleStr(t, cn, fmt.Sprintf("m%x,4", buf+4)); m != "01000000" {
		t.Fatalf("m buf[1] = %q", m)
	}
	// Byte granularity: an unaligned 2-byte read slices the word.
	if m := handleStr(t, cn, fmt.Sprintf("m%x,2", buf+5)); m != "0000" {
		t.Fatalf("unaligned read = %q", m)
	}
	// The overflowing store wrote 8 into ptr.
	if m := handleStr(t, cn, fmt.Sprintf("m%x,4", ptr)); m != "08000000" {
		t.Fatalf("m ptr = %q", m)
	}
	// A word the window never touched is unavailable, not invented.
	if m := handleStr(t, cn, fmt.Sprintf("m%x,4", ptr+64)); m != "xxxxxxxx" {
		t.Fatalf("untouched word = %q", m)
	}
	// A read spanning several mem commands chunks transparently.
	span := uint64(timetravel.MaxMemWords*4 + 64)
	m := handleStr(t, cn, fmt.Sprintf("m%x,%x", buf, span))
	if uint64(len(m)) != 2*span {
		t.Fatalf("chunked read returned %d chars, want %d", len(m), 2*span)
	}
	if !strings.HasPrefix(m, "00000000"+"01000000") || !strings.HasSuffix(m, "xx") {
		t.Fatalf("chunked read content starts %q", m[:32])
	}
	// Malformed and writable requests fail without killing anything.
	if m := handleStr(t, cn, "mzz,4"); m != errMalformed {
		t.Fatalf("bad addr = %q", m)
	}
	if m := handleStr(t, cn, fmt.Sprintf("m%x,%x", buf, maxMemRead+1)); m != errMalformed {
		t.Fatalf("oversized read = %q", m)
	}
	if m := handleStr(t, cn, "mfffffffe,4"); m != errMalformed {
		t.Fatalf("wrapping read = %q", m)
	}
	for _, p := range []string{"G" + strings.Repeat("00", 132), "P0=1234", "Mdead,4:beef", "X0,0"} {
		if got := handleStr(t, cn, p); got != errReadOnly {
			t.Fatalf("%q = %q, want %s", p, got, errReadOnly)
		}
	}
}

// TestStubDivergenceInOlderHistory: on a report whose first interval's log
// is corrupted, c still reaches the crash (the session opens on the
// window's tail), and each packet that then needs older history answers
// E06 rather than a guess: a read of text the tail never touched, a watch
// on it, and a reverse continue to the window start.
func TestStubDivergenceInOlderHistory(t *testing.T) {
	rep, img := recordProgram(t, summerProgram)
	logs := rep.FLLs[0]
	if len(logs) < 3 {
		t.Fatalf("%d intervals: the window needs one older than its tail", len(logs))
	}
	first, err := logs[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	var bad *core.CrashReport
	for bit := 0; bit < 8*len(first.Entries) && bad == nil; bit++ {
		l := *first
		l.Entries = slices.Clone(first.Entries)
		l.Entries[bit/8] ^= 1 << (bit % 8)
		out := *rep
		out.FLLs = maps.Clone(rep.FLLs)
		out.FLLs[0] = append(core.WrapFLLs([]*fll.Log{&l}), logs[1:]...)
		if _, err := core.NewReplayer(img, out.FLLs[0]).Run(); errors.Is(err, core.ErrDiverged) {
			bad = &out
		}
	}
	if bad == nil {
		t.Fatal("no flipped bit of the first interval makes the replay diverge")
	}
	mgr := timetravel.NewManager(&fakeSource{rep: bad, img: img}, timetravel.ManagerConfig{
		MaxSessions: 1,
		IdleTimeout: time.Hour,
		Engine:      timetravel.Config{CheckpointEvery: 8},
	})
	t.Cleanup(mgr.Close)
	cn := &conn{srv: New(Config{Manager: mgr, DefaultReport: "r1"})}
	if got := handleStr(t, cn, "c"); !strings.Contains(got, "replaylog:end") {
		t.Fatalf("c = %q, want the crash", got)
	}
	for _, p := range []string{
		fmt.Sprintf("m%x,4", img.TextBase),
		fmt.Sprintf("Z2,%x,4", img.TextBase),
		"bc",
	} {
		if got := handleStr(t, cn, p); got != errReplay {
			t.Fatalf("%q = %q, want %s", p, got, errReplay)
		}
	}
	// What the tail replayed stays readable.
	if got := handleStr(t, cn, "g"); len(got) != (pcRegNum+1)*8 {
		t.Fatalf("g = %q", got)
	}
}

func TestStubBreakAndWatchPackets(t *testing.T) {
	cn, _, img := newTestStub(t, 2, "r1")
	store := img.MustSymbol("store")
	ptr := img.MustSymbol("ptr")

	if got := handleStr(t, cn, fmt.Sprintf("Z0,%x,4", store)); got != "OK" {
		t.Fatalf("Z0 = %q", got)
	}
	rep := handleStr(t, cn, "c")
	if !strings.Contains(rep, "swbreak") {
		t.Fatalf("breakpoint stop = %q", rep)
	}
	if pc, ok := StopPC(rep); !ok || pc != store {
		t.Fatalf("breakpoint stop pc = %#x (%v), want %#x", pc, ok, store)
	}
	if got := handleStr(t, cn, fmt.Sprintf("z0,%x,4", store)); got != "OK" {
		t.Fatalf("z0 = %q", got)
	}
	if got := handleStr(t, cn, fmt.Sprintf("Z2,%x,4", ptr)); got != "OK" {
		t.Fatalf("Z2 = %q", got)
	}
	rep = handleStr(t, cn, "c")
	if addr, ok := StopWatchAddr(rep); !ok || addr != ptr&^3 {
		t.Fatalf("watch stop = %q", rep)
	}
	if got := handleStr(t, cn, fmt.Sprintf("z2,%x,4", ptr)); got != "OK" {
		t.Fatalf("z2 = %q", got)
	}
	// Unsupported breakpoint types are explicitly unimplemented.
	if got := handleStr(t, cn, "Z9,0,0"); got != "" {
		t.Fatalf("Z9 = %q", got)
	}
	if got := handleStr(t, cn, "Z0"); got != errMalformed {
		t.Fatalf("truncated Z = %q", got)
	}
}

func TestStubMotionAndVCont(t *testing.T) {
	cn, _, _ := newTestStub(t, 2, "r1")
	rep := handleStr(t, cn, "s")
	pc1, ok := StopPC(rep)
	if !ok || !strings.HasPrefix(rep, "T05") {
		t.Fatalf("s = %q", rep)
	}
	rep = handleStr(t, cn, "bs")
	if !strings.HasPrefix(rep, "T05") {
		t.Fatalf("bs = %q", rep)
	}
	// Reverse-stepping past the window start reports the replaylog edge.
	rep = handleStr(t, cn, "bs")
	if !strings.Contains(rep, "replaylog:begin") {
		t.Fatalf("bs at start = %q", rep)
	}
	if got := handleStr(t, cn, "vCont?"); got != "vCont;c;C;s;S" {
		t.Fatalf("vCont? = %q", got)
	}
	rep = handleStr(t, cn, "vCont;s:1;c")
	if pc2, ok := StopPC(rep); !ok || pc2 != pc1 {
		t.Fatalf("vCont;s landed at %q, first step at %#x", rep, pc1)
	}
	if got := handleStr(t, cn, "vCont;x"); got != errMalformed {
		t.Fatalf("vCont;x = %q", got)
	}
	// Resume-with-address rewrites history; refused.
	if got := handleStr(t, cn, "c100"); got != errMalformed {
		t.Fatalf("c<addr> = %q", got)
	}
}

func TestStubDetachAndKill(t *testing.T) {
	cn, mgr, _ := newTestStub(t, 2, "r1")
	handleStr(t, cn, "?") // auto-attach the default report
	if mgr.Count() != 1 {
		t.Fatalf("sessions after ? = %d", mgr.Count())
	}
	if got := handleStr(t, cn, "D"); got != "OK" {
		t.Fatalf("D = %q", got)
	}
	if mgr.Count() != 0 {
		t.Fatalf("sessions after D = %d", mgr.Count())
	}
	handleStr(t, cn, "?")
	reply, kill := cn.handle([]byte("k"))
	if !kill || reply != "" {
		t.Fatalf("k = %q, kill=%v", reply, kill)
	}
	if mgr.Count() != 0 {
		t.Fatalf("sessions after k = %d", mgr.Count())
	}
}
