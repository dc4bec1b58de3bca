// Command bugnet-debug is the time-travel replay debugger the paper
// motivates: it navigates a recorded crash window deterministically in
// both directions, with breakpoints, data watchpoints and inspection of
// every memory location the window touched (§7.1 semantics: anything else
// is unknown — BugNet ships no core dump).
//
// Reverse execution is O(checkpoint-interval), not O(window): the engine
// (internal/timetravel) checkpoints full replay state every 10,000
// instructions and implements backward motion as "restore nearest
// checkpoint + bounded forward re-execution". A reverse-continue scans
// the checkpoint gaps on GOMAXPROCS workers. The first continue replays
// only the window's last interval; the rest is replayed the first time a
// command reaches into it (a seek before it, reading or watching a word it
// never touched, a reverse-continue with stops set), which is also when a
// divergence there is reported.
//
// Local mode opens a crash report archive against the matching binary:
//
//	bugnet-debug -archive report.bnar -bug gzip
//
// Remote mode debugs a report stored in a bugnet-serve triage service,
// driving a server-side session over the JSON debug API — the developer
// needs no local copy of the report:
//
//	bugnet-debug -remote http://triage:8080 -report <id>
//
// RSP smoke mode exercises a bugnet-serve -gdb listener with the built-in
// scripted gdb-remote client — a quick wire-level health check (handshake,
// attach, registers, one step each way) without a real gdb installed:
//
//	bugnet-debug -rsp triage:1234 [-report <id>]
//
// Commands (stdin, one per line, so sessions can be scripted):
//
//	s [n]         step n instructions (default 1)
//	rs [n]        reverse-step n instructions
//	c             continue to breakpoint / watchpoint / end of window
//	rc            reverse-continue to previous breakpoint / watch change
//	b <sym|hex>   set a breakpoint
//	d <sym|hex>   delete a breakpoint
//	watch <sym|hex>    watch a word; stops when its known value changes
//	unwatch <sym|hex>  remove a watchpoint
//	runto <sym>   run to an address once
//	seek <n>      travel to absolute instruction position n (either way)
//	goto <n>      alias of seek
//	reset         back to the start of the window (seek 0)
//	regs          print the register file
//	x <sym|hex>   examine a memory word (reports unknown if untouched)
//	bt [n]        backtrace: the last n fetched instructions
//	where         print position, pc, symbol and disassembly
//	q             quit (closes the remote session)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bugnet/internal/cli"
	"bugnet/internal/gdbstub"
	"bugnet/internal/httpjson"
	"bugnet/internal/obs"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
)

// driver abstracts where commands execute: an in-process engine or a
// remote bugnet-serve session.
type driver interface {
	do(c timetravel.Command) timetravel.Outcome
	close()
}

func main() {
	archive := flag.String("archive", "bugnet-report.bnar", "crash report archive file (local mode)")
	bug := flag.String("bug", "", "bug analogue the report was recorded from")
	spec := flag.String("spec", "", "SPEC analogue the report was recorded from")
	asmFile := flag.String("asm", "", "assembly source the report was recorded from")
	scale := flag.Int("scale", 100, "bug-window scale used when recording")
	tid := flag.Int("tid", -1, "thread to debug (default: the crashing thread)")
	remote := flag.String("remote", "", "bugnet-serve base URL for a remote debug session")
	reportID := flag.String("report", "", "stored report id to debug (remote mode)")
	rsp := flag.String("rsp", "", "bugnet-serve -gdb address for an RSP smoke check")
	dump := flag.String("metrics-dump", "", "write a JSON metrics snapshot to this path at exit (\"-\" = stdout)")
	flag.Parse()

	if *rsp != "" {
		if err := rspSmoke(*rsp, *reportID); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpMetrics(*dump)
		return
	}

	var d driver
	if *remote != "" {
		if *reportID == "" {
			fmt.Fprintln(os.Stderr, "-remote needs -report <id>")
			os.Exit(2)
		}
		rd, err := openRemote(strings.TrimRight(*remote, "/"), *reportID, *tid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d = rd
	} else {
		ld, err := openLocal(cli.Selection{Bug: *bug, Spec: *spec, Asm: *asmFile, Scale: *scale},
			*archive, *tid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d = ld
	}
	defer d.close()
	repl(d)
	dumpMetrics(*dump)
}

// dumpMetrics writes the process metrics snapshot for scripted sessions
// (local mode surfaces the per-verb command latency histograms).
func dumpMetrics(path string) {
	if path == "" {
		return
	}
	if err := obs.WriteSnapshotFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "writing metrics dump:", err)
	}
}

// --- local mode ---

// localDriver runs commands on an in-process engine over an archive it
// keeps open: the engine's lazy log views read from it on demand.
type localDriver struct {
	eng     *timetravel.Engine
	archive *report.Archive
}

func (l *localDriver) do(c timetravel.Command) timetravel.Outcome { return l.eng.Exec(c) }
func (l *localDriver) close()                                     { l.archive.Close() }

func openLocal(sel cli.Selection, path string, tid int) (*localDriver, error) {
	img, _, err := cli.Pick(sel)
	if err != nil {
		return nil, err
	}
	a, err := report.OpenFile(path)
	if err != nil {
		return nil, err
	}
	rep := a.Report()
	if rep.Binary.TextLen != 0 {
		err = rep.Binary.Matches(img)
	}
	var eng *timetravel.Engine
	if err == nil {
		eng, tid, err = timetravel.NewEngineForThread(img, rep, tid, timetravel.Config{})
	}
	if err != nil {
		a.Close()
		return nil, err
	}
	fmt.Printf("replay window: %d instructions of thread %d\n", eng.Window(), tid)
	if f := eng.Fault(); f != nil {
		fmt.Printf("recorded crash at %s: %s\n", eng.SymbolAt(f.PC), eng.Disasm(f.PC))
	}
	return &localDriver{eng: eng, archive: a}, nil
}

// --- remote mode ---

type remoteDriver struct {
	url string // the session's resource: .../api/v1/debug/sessions/{id}
}

func openRemote(base, reportID string, tid int) (*remoteDriver, error) {
	req := timetravel.OpenRequest{Report: reportID}
	if tid >= 0 {
		req.TID = &tid
	}
	body, _ := json.Marshal(req)
	sessions := base + httpjson.APIPrefix + "/debug/sessions"
	resp, err := http.Post(sessions, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("open session: %s: %s", resp.Status, readErr(resp.Body))
	}
	var info timetravel.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("open session: %v", err)
	}
	fmt.Printf("remote session %s over report %s\n", info.ID, info.Report)
	fmt.Printf("replay window: %d instructions of thread %d\n", info.Window, info.TID)
	if info.Fault != nil {
		fmt.Printf("recorded crash at %s: %s (%s)\n", info.Fault.Symbol, info.Fault.Disasm, info.Fault.Cause)
	}
	return &remoteDriver{url: sessions + "/" + info.ID}, nil
}

func (r *remoteDriver) do(c timetravel.Command) timetravel.Outcome {
	body, _ := json.Marshal(c)
	resp, err := http.Post(r.url+"/cmd", "application/json", bytes.NewReader(body))
	if err != nil {
		return timetravel.Outcome{Error: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return timetravel.Outcome{Error: fmt.Sprintf("%s: %s", resp.Status, readErr(resp.Body))}
	}
	var out timetravel.Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return timetravel.Outcome{Error: err.Error()}
	}
	return out
}

func (r *remoteDriver) close() {
	req, _ := http.NewRequest(http.MethodDelete, r.url, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// --- RSP smoke mode ---

// rspSmoke drives one scripted conversation against a bugnet-serve -gdb
// listener and prints the transcript: the cheapest way to confirm the RSP
// deployment end to end (port open, report attachable, reverse execution
// advertised and working) before pointing a real gdb at it.
func rspSmoke(addr, report string) error {
	cl, err := gdbstub.Dial(addr, 30*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()

	step := func(what, packet string) (string, error) {
		rep, err := cl.Exchange(packet)
		if err != nil {
			return "", fmt.Errorf("%s (%s): %w", what, packet, err)
		}
		fmt.Printf("%-18s %-14s -> %s\n", what, packet, rep)
		if strings.HasPrefix(rep, "E") {
			return rep, fmt.Errorf("%s: stub replied %s", what, rep)
		}
		return rep, nil
	}

	sup, err := step("handshake", "qSupported")
	if err != nil {
		return err
	}
	if !strings.Contains(sup, "ReverseContinue+") {
		return fmt.Errorf("stub does not advertise reverse execution: %q", sup)
	}
	if err := cl.StartNoAck(); err != nil {
		return err
	}
	fmt.Printf("%-18s %-14s -> OK\n", "no-ack mode", "QStartNoAckMode")
	if report != "" {
		if _, err := step("attach", "vAttach;"+report); err != nil {
			return err
		}
	}
	if _, err := step("status", "?"); err != nil {
		return err
	}
	regs, pc, err := cl.ReadRegisters()
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-14s -> pc=%#08x (%d registers)\n", "registers", "g", pc, len(regs))
	if _, err := step("step", "s"); err != nil {
		return err
	}
	if _, err := step("reverse-step", "bs"); err != nil {
		return err
	}
	if _, err := step("detach", "D"); err != nil {
		return err
	}
	fmt.Println("rsp smoke check passed")
	return nil
}

func readErr(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	// Servers answer with the standard error envelope.
	if body, ok := httpjson.DecodeError(data); ok {
		if body.Code != "" {
			return body.Code + ": " + body.Message
		}
		return body.Message
	}
	return strings.TrimSpace(string(data))
}

// --- REPL ---

func repl(d driver) {
	show(d.do(timetravel.Command{Cmd: "where"}))
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("(bugnet) ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("(bugnet) ")
			continue
		}
		cmd, ok := parse(fields)
		if cmd.Cmd == "quit" {
			return
		}
		if ok {
			show(d.do(cmd))
		}
		fmt.Print("(bugnet) ")
	}
}

// parse turns a REPL line into a protocol command. ok is false when the
// line was malformed (a usage hint was printed).
func parse(fields []string) (timetravel.Command, bool) {
	count := func() uint64 {
		if len(fields) > 1 {
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				return v
			}
		}
		return 0
	}
	target := func() (timetravel.Command, bool) {
		if len(fields) < 2 {
			fmt.Println("need an address or symbol")
			return timetravel.Command{}, false
		}
		// The raw token travels as Sym and resolves where the image lives
		// (server side in remote mode): symbol first, then "0x"-prefixed
		// hex, then bare digits as decimal — "100" is one hundred, "0x100"
		// is 256.
		return timetravel.Command{Sym: fields[1]}, true
	}

	switch fields[0] {
	case "q", "quit", "exit":
		return timetravel.Command{Cmd: "quit"}, false
	case "s", "step":
		return timetravel.Command{Cmd: "step", N: count()}, true
	case "rs", "rstep":
		return timetravel.Command{Cmd: "rstep", N: count()}, true
	case "c", "continue", "cont":
		return timetravel.Command{Cmd: "cont"}, true
	case "rc", "rcont":
		return timetravel.Command{Cmd: "rcont"}, true
	case "seek", "goto":
		if len(fields) < 2 {
			fmt.Println("need a position")
			return timetravel.Command{}, false
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Println("bad position:", fields[1])
			return timetravel.Command{}, false
		}
		return timetravel.Command{Cmd: "seek", Pos: v}, true
	case "reset":
		return timetravel.Command{Cmd: "seek", Pos: 0}, true
	case "b", "break":
		c, ok := target()
		c.Cmd = "break"
		return c, ok
	case "d", "delete":
		c, ok := target()
		c.Cmd = "delete"
		return c, ok
	case "watch":
		c, ok := target()
		c.Cmd = "watch"
		return c, ok
	case "unwatch":
		c, ok := target()
		c.Cmd = "unwatch"
		return c, ok
	case "regs":
		return timetravel.Command{Cmd: "regs"}, true
	case "x", "examine":
		c, ok := target()
		c.Cmd = "mem"
		if len(fields) > 2 {
			if v, err := strconv.ParseUint(fields[2], 10, 64); err == nil {
				c.N = v
			}
		}
		return c, ok
	case "bt", "backtrace":
		return timetravel.Command{Cmd: "backtrace", N: count()}, true
	case "where", "w":
		return timetravel.Command{Cmd: "where"}, true
	case "runto":
		// runto = temporary breakpoint + continue, composed client-side.
		c, ok := target()
		if !ok {
			return c, false
		}
		c.Cmd = "runto"
		return c, true
	default:
		fmt.Println("commands: s [n] | rs [n] | c | rc | b <sym> | d <sym> | watch <sym> | unwatch <sym> |" +
			" runto <sym> | seek <n> | reset | regs | x <sym> [n] | bt [n] | where | q")
		return timetravel.Command{}, false
	}
}

// show renders one outcome.
func show(out timetravel.Outcome) {
	if out.Error != "" {
		fmt.Println("error:", out.Error)
		if out.Window == 0 {
			// Transport-level failure: there is no position to report.
			return
		}
	}
	if out.Stop != "" {
		fmt.Printf("stopped: %s\n", out.Stop)
	}
	if out.Watch != nil {
		w := out.Watch
		fmt.Printf("watch %#08x: %s -> %s\n", w.Addr, watchVal(w.OldKnown, w.Old), watchVal(w.NewKnown, w.New))
	}
	for _, m := range out.Mem {
		if m.Known {
			fmt.Printf("%#08x: %#08x (%d)\n", m.Addr, m.Value, int32(m.Value))
		} else {
			fmt.Printf("%#08x: unknown — not touched in the recorded window (no core dump in BugNet)\n", m.Addr)
		}
	}
	if len(out.Regs) > 0 {
		fmt.Printf("pc = %#08x\n", out.PC)
		for i := 0; i < len(out.Regs); i += 4 {
			for j := i; j < i+4 && j < len(out.Regs); j++ {
				fmt.Printf("%-4s= %#08x  ", out.Regs[j].Name, out.Regs[j].Value)
			}
			fmt.Println()
		}
	}
	for _, f := range out.Backtrace {
		fmt.Printf("  %#08x %-24s %s\n", f.PC, f.Symbol, f.Disasm)
	}
	if len(out.Breaks) > 0 {
		fmt.Printf("breakpoints: %d\n", len(out.Breaks))
	}
	if len(out.Watches) > 0 {
		fmt.Printf("watchpoints: %d\n", len(out.Watches))
	}
	fmt.Printf("[%d/%d] %s:  %s\n", out.Pos, out.Window, out.Symbol, out.Disasm)
}

func watchVal(known bool, v uint32) string {
	if !known {
		return "unknown"
	}
	return fmt.Sprintf("%#x", v)
}
