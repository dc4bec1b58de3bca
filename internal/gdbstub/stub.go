package gdbstub

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bugnet/internal/isa"
	"bugnet/internal/timetravel"
)

// pcRegNum is the RSP register number of the program counter: the 32
// general-purpose registers occupy 0..31 and pc follows, matching the
// riscv:rv32 register file that target.xml declares.
const pcRegNum = isa.NumRegs

// maxMemRead caps one m-packet read in bytes. gdb sizes its reads by the
// advertised PacketSize, but the cap also defends against hand-rolled
// clients; larger requests get an error, not a truncated reply.
const maxMemRead = 4096

// Error replies. RSP error codes are two free-form hex digits; these are
// this stub's stable meanings, documented for scripted clients.
const (
	errMalformed  = "E01" // unparseable packet arguments
	errNoSession  = "E02" // no attached session and no default report
	errSessionDed = "E03" // the session died mid-connection (idle-reaped)
	errCapacity   = "E04" // the session manager's concurrency cap is reached
	errReadOnly   = "E05" // write to the deterministic replay (registers/memory)
	errReplay     = "E06" // the replay the command needed failed (the recorded window diverges)
)

// conn is one RSP connection's protocol state. The transport (server.go)
// owns the socket; conn owns the attached session and the pure
// packet-payload → reply-payload mapping, so tests drive handle directly.
type conn struct {
	srv  *Server
	sess *timetravel.Session

	// noAck is set once QStartNoAckMode takes effect; startNoAck marks the
	// switch pending until the mode command's own reply has been sent (that
	// exchange is still acknowledged).
	noAck      bool
	startNoAck bool
}

// handle maps one decoded packet payload to a reply payload. kill reports
// that the connection should close after any reply (the k packet). A
// malformed packet earns an E-reply, an unsupported one the empty reply —
// never a dropped connection, and never a dropped server.
func (cn *conn) handle(p []byte) (reply string, kill bool) {
	if len(p) == 0 {
		return "", false
	}
	s := string(p)
	switch {
	case s == "!":
		return "OK", false // extended-remote: attach/detach at will
	case s == "?":
		out, errRep := cn.do(timetravel.Command{Cmd: "where"})
		if errRep != "" {
			return errRep, false
		}
		return stopReply(out), false
	case s == "QStartNoAckMode":
		cn.startNoAck = true
		return "OK", false
	case strings.HasPrefix(s, "qSupported"):
		return fmt.Sprintf("PacketSize=%x;QStartNoAckMode+;qXfer:features:read+;"+
			"ReverseStep+;ReverseContinue+;swbreak+;hwbreak+;vContSupported+;qAttached+", maxMemRead), false
	case s == "qAttached":
		return "1", false // debugging an existing recording: detach, don't kill
	case s == "qC":
		return "QC1", false
	case s == "qfThreadInfo":
		return "m1", false
	case s == "qsThreadInfo":
		return "l", false
	case strings.HasPrefix(s, "qXfer:features:read:"):
		return cn.readFeatures(s[len("qXfer:features:read:"):]), false
	case strings.HasPrefix(s, "vAttach;"):
		return cn.attach(s[len("vAttach;"):]), false
	case s == "vCont?":
		return "vCont;c;C;s;S", false
	case strings.HasPrefix(s, "vCont;"):
		return cn.vCont(s[len("vCont;"):]), false
	case s[0] == 'q' || s[0] == 'v':
		return "", false // unknown query/v-packet: explicitly unsupported
	case s[0] == 'H':
		return "OK", false // thread-select: there is only thread 1
	case s[0] == 'T':
		return "OK", false // thread-alive: the replayed thread always is
	case s == "g":
		return cn.readRegs(), false
	case s[0] == 'p':
		return cn.readReg(s[1:]), false
	case s[0] == 'G' || s[0] == 'P' || s[0] == 'M' || s[0] == 'X':
		// The replay is deterministic history; nothing is writable.
		return errReadOnly, false
	case s[0] == 'm':
		return cn.readMem(s[1:]), false
	case s[0] == 'Z' || s[0] == 'z':
		return cn.breakpoint(s), false
	case s == "s":
		return cn.motion("step"), false
	case s == "c":
		return cn.motion("cont"), false
	case s == "bs":
		return cn.motion("rstep"), false
	case s == "bc":
		return cn.motion("rcont"), false
	case s[0] == 's' || s[0] == 'c':
		// Resume-at-address rewrites history; a replay cannot.
		return errMalformed, false
	case strings.HasPrefix(s, "D"):
		cn.detach()
		return "OK", false
	case s == "k":
		cn.detach()
		return "", true
	}
	return "", false
}

// ensure lazily attaches the connection to the server's default report,
// so a plain "target remote" session (which never sends vAttach) lands on
// the report the operator selected with -gdb-report.
func (cn *conn) ensure() string {
	if cn.sess != nil {
		return ""
	}
	if cn.srv == nil || cn.srv.cfg.DefaultReport == "" {
		return errNoSession
	}
	return cn.open(cn.srv.cfg.DefaultReport)
}

// open attaches a manager session over the report, mapping open failures
// onto stable E-codes.
func (cn *conn) open(report string) string {
	s, err := cn.srv.cfg.Manager.Open(report, -1)
	switch {
	case errors.Is(err, timetravel.ErrUnknownReport):
		return errNoSession
	case errors.Is(err, timetravel.ErrSessionLimit):
		return errCapacity
	case err != nil:
		return errNoSession
	}
	cn.sess = s
	return ""
}

// attach implements vAttach;<report-id>: the "pid" is a stored report's
// content address, selected per connection. Re-attaching drops the old
// session first so one connection never holds two cap slots.
func (cn *conn) attach(report string) string {
	if report == "" {
		return errMalformed
	}
	cn.detach()
	if rep := cn.open(report); rep != "" {
		return rep
	}
	out, errRep := cn.do(timetravel.Command{Cmd: "where"})
	if errRep != "" {
		return errRep
	}
	return stopReply(out)
}

// detach closes the attached session, if any. Idempotent.
func (cn *conn) detach() {
	if cn.sess != nil {
		cn.srv.cfg.Manager.CloseSession(cn.sess.ID)
		cn.sess = nil
	}
}

// do runs one command against the attached (or default) session. A
// non-empty errRep is the E-packet to send instead of a real reply.
func (cn *conn) do(c timetravel.Command) (timetravel.Outcome, string) {
	if rep := cn.ensure(); rep != "" {
		return timetravel.Outcome{}, rep
	}
	out := cn.sess.Do(c)
	if out.Error != "" && out.Window == 0 {
		// "session closed": the idle janitor reaped it between packets.
		// Drop our handle so the next command can re-attach.
		cn.detach()
		return out, errSessionDed
	}
	return out, ""
}

// motion runs one motion command (step/cont and the reverse pair behind
// the bs/bc extensions) and renders the resulting stop reply.
func (cn *conn) motion(cmd string) string {
	out, errRep := cn.do(timetravel.Command{Cmd: cmd})
	if errRep != "" {
		return errRep
	}
	if out.Error != "" {
		return errReplay
	}
	return stopReply(out)
}

// vCont executes the first action of a vCont packet. The engine replays
// one thread, so thread-qualified action lists collapse to their first
// action; signals are accepted and ignored (a replay cannot take one).
func (cn *conn) vCont(actions string) string {
	first, _, _ := strings.Cut(actions, ";")
	first, _, _ = strings.Cut(first, ":")
	if first == "" {
		return errMalformed
	}
	switch first[0] {
	case 'c', 'C':
		return cn.motion("cont")
	case 's', 'S':
		return cn.motion("step")
	}
	return errMalformed
}

// stopReply renders an Outcome as a T05 stop-reply packet. Watchpoint
// stops carry the watch:<addr> pair (both directions — reverse lands on
// the mutating instruction, forward just after it), breakpoint stops
// swbreak, and window edges the replaylog markers gdb's record targets
// use. The PC rides along as a register pair so scripted clients need no
// follow-up g packet.
func stopReply(out timetravel.Outcome) string {
	var sb strings.Builder
	sb.WriteString("T05")
	switch out.Stop {
	case "watchpoint":
		if out.Watch != nil {
			fmt.Fprintf(&sb, "watch:%x;", out.Watch.Addr)
		}
	case "breakpoint":
		sb.WriteString("swbreak:;")
	case "end-of-window":
		sb.WriteString("replaylog:end;")
	case "start-of-window":
		sb.WriteString("replaylog:begin;")
	}
	fmt.Fprintf(&sb, "thread:1;%x:%s;", pcRegNum, hexWordLE(out.PC))
	return sb.String()
}

// readRegs implements g: every general-purpose register then the PC, each
// as little-endian hex, in target.xml's declared order.
func (cn *conn) readRegs() string {
	out, errRep := cn.do(timetravel.Command{Cmd: "regs"})
	if errRep != "" {
		return errRep
	}
	var sb strings.Builder
	for _, r := range out.Regs {
		sb.WriteString(hexWordLE(r.Value))
	}
	sb.WriteString(hexWordLE(out.PC))
	return sb.String()
}

// readReg implements p<n>: one register by RSP number.
func (cn *conn) readReg(arg string) string {
	n, err := strconv.ParseUint(arg, 16, 32)
	if err != nil || n > pcRegNum {
		return errMalformed
	}
	out, errRep := cn.do(timetravel.Command{Cmd: "regs"})
	if errRep != "" {
		return errRep
	}
	if n == pcRegNum {
		return hexWordLE(out.PC)
	}
	return hexWordLE(out.Regs[n].Value)
}

// readMem implements m<addr>,<len>: a byte-granular read layered over the
// engine's word-granular mem command, chunked by the command layer's
// MaxMemWords cap. Bytes the recorded window never touched are reported
// as the "xx" unavailable marker (§7.1: BugNet ships no core dump), so
// gdb shows exactly what the recording can prove. A word the engine's
// tail never touched makes it replay older history first; if that history
// diverges the read answers E06, as does every motion that needed it.
func (cn *conn) readMem(arg string) string {
	addrStr, lenStr, ok := strings.Cut(arg, ",")
	if !ok {
		return errMalformed
	}
	addr64, err1 := strconv.ParseUint(addrStr, 16, 32)
	length, err2 := strconv.ParseUint(lenStr, 16, 32)
	if err1 != nil || err2 != nil || length == 0 || length > maxMemRead {
		return errMalformed
	}
	addr := uint32(addr64)
	if uint64(addr)+length-1 > 0xFFFF_FFFF {
		return errMalformed // the read would wrap the address space
	}
	first := addr &^ 3
	last := (addr + uint32(length) - 1) &^ 3
	totalWords := uint64(last-first)/4 + 1
	words := make([]timetravel.Word, 0, totalWords)
	for off := uint64(0); off < totalWords; off += timetravel.MaxMemWords {
		n := totalWords - off
		if n > timetravel.MaxMemWords {
			n = timetravel.MaxMemWords
		}
		out, errRep := cn.do(timetravel.Command{Cmd: "mem", Addr: first + uint32(off)*4, N: n})
		if errRep != "" {
			return errRep
		}
		if out.Error != "" {
			return errReplay
		}
		words = append(words, out.Mem...)
	}
	data, known := timetravel.BytesFromWords(words, addr, int(length))
	var sb strings.Builder
	sb.Grow(2 * len(data))
	for i, b := range data {
		if known[i] {
			sb.WriteByte(hexDigits[b>>4])
			sb.WriteByte(hexDigits[b&0xf])
		} else {
			sb.WriteString("xx")
		}
	}
	return sb.String()
}

// breakpoint implements Z/z: Z0/Z1 (software/hardware breakpoints — both
// PC traps here, replay has no real text to patch) map to break/delete,
// and Z2–Z4 (write/read/access watchpoints) all map to the engine's data
// watchpoints, which fire on any change of the watched word's known value
// — the §7.1 superset of all three kinds.
func (cn *conn) breakpoint(s string) string {
	parts := strings.Split(s[1:], ",")
	if len(parts) < 2 || parts[0] == "" {
		return errMalformed
	}
	addr64, err := strconv.ParseUint(parts[1], 16, 32)
	if err != nil {
		return errMalformed
	}
	addr := uint32(addr64)
	insert := s[0] == 'Z'
	var cmd string
	switch parts[0][0] {
	case '0', '1':
		cmd = "break"
		if !insert {
			cmd = "delete"
		}
	case '2', '3', '4':
		cmd = "watch"
		if !insert {
			cmd = "unwatch"
		}
	default:
		return "" // unsupported breakpoint type
	}
	out, errRep := cn.do(timetravel.Command{Cmd: cmd, Addr: addr})
	if errRep != "" {
		return errRep
	}
	if out.Error != "" {
		return errReplay // a watch on a word that needs history the replay failed on
	}
	return "OK"
}

// readFeatures implements qXfer:features:read — the target.xml transfer
// that teaches gdb this machine's register file.
func (cn *conn) readFeatures(arg string) string {
	annex, rng, ok := strings.Cut(arg, ":")
	if !ok || annex != "target.xml" {
		return "E00"
	}
	offStr, lenStr, ok := strings.Cut(rng, ",")
	if !ok {
		return errMalformed
	}
	off, err1 := strconv.ParseUint(offStr, 16, 32)
	n, err2 := strconv.ParseUint(lenStr, 16, 32)
	if err1 != nil || err2 != nil {
		return errMalformed
	}
	xml := targetXML()
	if off >= uint64(len(xml)) {
		return "l"
	}
	end := off + n
	if end >= uint64(len(xml)) {
		return "l" + xml[off:]
	}
	return "m" + xml[off:end]
}

// hexWordLE renders a 32-bit value as eight hex digits in target byte
// order (little-endian), the encoding g/p/T replies use.
func hexWordLE(v uint32) string {
	var b [8]byte
	for i := 0; i < 4; i++ {
		by := byte(v >> (8 * i))
		b[2*i] = hexDigits[by>>4]
		b[2*i+1] = hexDigits[by&0xf]
	}
	return string(b[:])
}
