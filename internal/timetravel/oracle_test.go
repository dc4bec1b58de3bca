package timetravel

// oracle_test.go holds the stop oracle: a reference debugger that steps one
// instruction at a time and polices breakpoints and watchpoints after each,
// the way the engine did before stops moved into the block engine. Step,
// Continue and ReverseContinue must land where it lands, for the same
// reason, with the same registers, backtrace and watch transition.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// refEngine is the oracle. It keeps no checkpoints: a backward move
// replays from the window start. Its machine has no breakpoints or
// watches of its own, and StepOne keeps the fetch hook on, so its
// backtrace is every fetch's.
type refEngine struct {
	e         *Engine // whose logs and options the machines replay
	m         *core.ReplayMachine
	breaks    map[uint32]bool
	watches   []uint32 // ascending
	vals      map[uint32]watchVal
	lastWatch *WatchHit
}

func newRefEngine(e *Engine) *refEngine {
	return &refEngine{e: e, m: e.newMachine(TraceDepth, 0), breaks: map[uint32]bool{}, vals: map[uint32]watchVal{}}
}

func (r *refEngine) addBreak(pc uint32)   { r.breaks[pc] = true }
func (r *refEngine) clearBreak(pc uint32) { delete(r.breaks, pc) }

func (r *refEngine) addWatch(addr uint32) {
	w := addr &^ 3
	if !slices.Contains(r.watches, w) {
		r.watches = append(r.watches, w)
		slices.Sort(r.watches)
		v, known := r.m.ReadWord(w)
		r.vals[w] = watchVal{known: known, val: v}
	}
}

func (r *refEngine) clearWatch(addr uint32) {
	r.watches = slices.DeleteFunc(r.watches, func(w uint32) bool { return w == addr&^3 })
	delete(r.vals, addr&^3)
}

// prime reads every watched word on m into vals.
func (r *refEngine) prime(m *core.ReplayMachine, vals map[uint32]watchVal) {
	for _, a := range r.watches {
		v, known := m.ReadWord(a)
		vals[a] = watchVal{known: known, val: v}
	}
}

// check returns the first watched word, in address order, whose state on
// m differs from vals, updating vals for every word that changed.
func (r *refEngine) check(m *core.ReplayMachine, vals map[uint32]watchVal) *WatchHit {
	var hit *WatchHit
	for _, a := range r.watches {
		v, known := m.ReadWord(a)
		if prev := vals[a]; known != prev.known || v != prev.val {
			vals[a] = watchVal{known: known, val: v}
			if hit == nil {
				hit = &WatchHit{Addr: a, OldKnown: prev.known, Old: prev.val, NewKnown: known, New: v}
			}
		}
	}
	return hit
}

// seek replays to p, from the window start when p is behind.
func (r *refEngine) seek(p uint64) error {
	if p < r.m.Pos() {
		r.m = r.e.newMachine(TraceDepth, 0)
	}
	for r.m.Pos() < p && !r.m.Done() {
		if err := r.m.StepOne(); err != nil {
			return err
		}
	}
	r.prime(r.m, r.vals)
	return nil
}

// step runs up to n instructions, checking after each for a watch change
// first, then a breakpoint next, then the window's end.
func (r *refEngine) step(n uint64) (StopReason, error) {
	for i := uint64(0); i < n; i++ {
		if r.m.Done() {
			return StopEnd, nil
		}
		if err := r.m.StepOne(); err != nil {
			return StopEnd, err
		}
		if hit := r.check(r.m, r.vals); hit != nil {
			r.lastWatch = hit
			return StopWatch, nil
		}
		if r.breaks[r.m.PC()] {
			return StopBreak, nil
		}
		if r.m.Done() {
			return StopEnd, nil
		}
	}
	return StopStep, nil
}

func (r *refEngine) reverseStep(n uint64) (StopReason, error) {
	pos := r.m.Pos()
	if n >= pos {
		err := r.seek(0)
		if n > pos {
			return StopStart, err
		}
		return StopStep, err
	}
	return StopStep, r.seek(pos - n)
}

// reverseContinue replays the window from its start to the current
// position one instruction at a time and lands on the last stop: a
// breakpoint's position, or the position of the instruction that changed
// a watched word (a change after a breakpoint's arrival at the same
// position wins, as it is seen later). One pass from the start finds what
// the newest-first walk of checkpoint gaps found: checked after every
// instruction, the watch state at each gap's start is what priming there
// reads.
func (r *refEngine) reverseContinue() (StopReason, error) {
	limit := r.m.Pos()
	if len(r.breaks) == 0 && len(r.watches) == 0 {
		return StopStart, r.seek(0)
	}
	m := r.e.newMachine(TraceDepth, 0)
	vals := map[uint32]watchVal{}
	r.prime(m, vals)
	hitPos, reason := int64(-1), StopStep
	var watch *WatchHit
	if r.breaks[m.PC()] && m.Pos() < limit {
		hitPos, reason = int64(m.Pos()), StopBreak
	}
	for m.Pos() < limit && !m.Done() {
		p := m.Pos()
		if err := m.StepOne(); err != nil {
			return StopStep, err
		}
		if hit := r.check(m, vals); hit != nil {
			hitPos, reason, watch = int64(p), StopWatch, hit
		}
		if m.Pos() < limit && r.breaks[m.PC()] {
			hitPos, reason, watch = int64(m.Pos()), StopBreak, nil
		}
	}
	if hitPos < 0 {
		return StopStart, r.seek(0)
	}
	if err := r.seek(uint64(hitPos)); err != nil {
		return reason, err
	}
	r.lastWatch = watch
	return reason, nil
}

// codePatchProgram reads a new instruction from stdin over its own loop
// body fifty laps in. The replay does not re-run the kernel's write: under
// LogCodeLoads the new word arrives as a logged code load that differs from
// replay memory, a text word — always known — whose value changes.
const codePatchProgram = `
main:   li   t0, 0
        li   t1, 2000
        li   s1, 0
slot:   addi t0, t0, 1
        addi s1, s1, 1
        li   t2, 50
        bne  s1, t2, next
        li   a0, 0
        la   a1, slot
        li   a2, 4
        li   a7, 3
        syscall
next:   blt  t0, t1, slot
boom:   lw   a0, (zero)
`

// oracleWindow is one recorded thread to debug.
type oracleWindow struct {
	name string
	img  *asm.Image
	rep  *core.CrashReport
	tid  int
	// watch is a word worth watching, 0 for none.
	watch uint32
}

// oracleWindows records the inputs: every twin program at 32-instruction
// intervals, the worker thread of the multithreaded scan program, gzip's
// Table 1 analogue with code loads logged and a watch on the text word of
// its root-cause instruction, and codePatchProgram with a watch on the
// word it patches.
func oracleWindows(t *testing.T) []oracleWindow {
	var ws []oracleWindow
	for _, name := range slices.Sorted(maps.Keys(cputest.TwinPrograms)) {
		img := asm.MustAssemble(name+".s", cputest.TwinPrograms[name])
		_, rep, _ := core.Record(img, kernel.Config{MaxSteps: 5_000}, core.Config{IntervalLength: 32, Cache: tinyCache()})
		if len(rep.FLLs[0]) > 0 {
			ws = append(ws, oracleWindow{name: "twin/" + name, img: img, rep: rep})
		}
	}
	img := asm.MustAssemble("parscan.s", parScanProgram)
	res, rep, _ := core.Record(img, kernel.Config{Cores: 2}, core.Config{IntervalLength: 32, Cache: tinyCache()})
	if res.Crash == nil || res.Crash.TID != 1 {
		t.Fatalf("mt crash = %+v", res.Crash)
	}
	ws = append(ws, oracleWindow{name: "mt", img: img, rep: rep, tid: 1, watch: img.MustSymbol("shared")})

	gz := workload.BugByName("gzip", 100)
	m := gz.Machine(0, nil)
	rec := core.NewRecorder(m, core.Config{IntervalLength: 1_000, LogCodeLoads: true})
	m.Run()
	rec.Flush()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	ws = append(ws, oracleWindow{name: "gzip/code-loads", img: gz.Image, rep: rec.Report(), tid: -1, watch: gz.RootPC()})

	img = asm.MustAssemble("patch.s", codePatchProgram)
	patch := binary.LittleEndian.AppendUint32(nil,
		isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegT0, Rs1: isa.RegT0, Imm: 100}))
	res, rep, _ = core.Record(img, kernel.Config{Inputs: map[string][]byte{"stdin": patch}},
		core.Config{IntervalLength: 256, Cache: tinyCache(), LogCodeLoads: true})
	if res.Crash == nil {
		t.Fatal("the code-patch program did not crash")
	}
	ws = append(ws, oracleWindow{name: "code-patch", img: img, rep: rep, tid: -1, watch: img.MustSymbol("slot")})
	return ws
}

// oracleRun drives an engine and the oracle through the same commands.
type oracleRun struct {
	t *testing.T
	e *Engine
	r *refEngine
}

func newOracleRun(t *testing.T, w oracleWindow) *oracleRun {
	e, _, err := NewEngineForThread(w.img, w.rep, w.tid, Config{CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	return &oracleRun{t: t, e: e, r: newRefEngine(e)}
}

func (o *oracleRun) addBreak(pc uint32)   { o.e.AddBreak(pc); o.r.addBreak(pc) }
func (o *oracleRun) clearBreak(pc uint32) { o.e.ClearBreak(pc); o.r.clearBreak(pc) }
func (o *oracleRun) addWatch(a uint32)    { o.e.AddWatch(a); o.r.addWatch(a) }
func (o *oracleRun) clearWatch(a uint32)  { o.e.ClearWatch(a); o.r.clearWatch(a) }

func (o *oracleRun) clearAll() {
	for _, pc := range o.e.Breakpoints() {
		o.clearBreak(pc)
	}
	for _, a := range o.e.Watches() {
		o.clearWatch(a)
	}
}

func (o *oracleRun) seek(p uint64) {
	o.t.Helper()
	if err, rerr := o.e.SeekTo(p), o.r.seek(p); err != nil || rerr != nil {
		o.t.Fatalf("seek %d: %v; oracle %v", p, err, rerr)
	}
}

// do runs one motion command on both and fails unless they agree; it
// returns the oracle's stop.
func (o *oracleRun) do(what string) StopReason {
	o.t.Helper()
	var why, rwhy StopReason
	var err, rerr error
	switch {
	case what == "continue":
		why, err = o.e.Continue()
		rwhy, rerr = o.r.step(^uint64(0))
	case what == "reverse continue":
		why, err = o.e.ReverseContinue()
		rwhy, rerr = o.r.reverseContinue()
	default:
		var n uint64
		var rev string
		if _, serr := fmt.Sscanf(what, "%s %d", &rev, &n); serr != nil {
			o.t.Fatalf("command %q: %v", what, serr)
		}
		if rev == "rstep" {
			why, err = o.e.ReverseStep(n)
			rwhy, rerr = o.r.reverseStep(n)
		} else {
			why, err = o.e.Step(n)
			rwhy, rerr = o.r.step(n)
		}
	}
	e, r := o.e, o.r.m
	label := fmt.Sprintf("%s from breaks %#x, watches %#x", what, e.Breakpoints(), e.Watches())
	if why != rwhy || errText(err) != errText(rerr) || e.Pos() != r.Pos() || e.Done() != r.Done() {
		o.t.Fatalf("%s: %v at %d, %v; oracle %v at %d, %v", label, why, e.Pos(), err, rwhy, r.Pos(), rerr)
	}
	if e.Registers() != r.Registers() {
		o.t.Fatalf("%s: registers at %d differ:\n engine %+v\n oracle %+v", label, e.Pos(), e.Registers(), r.Registers())
	}
	if bt, want := e.Backtrace(), r.Trace(); !slices.Equal(bt, want) {
		o.t.Fatalf("%s: backtrace at %d differs:\n engine %x\n oracle %x", label, e.Pos(), bt, want)
	}
	if !reflect.DeepEqual(e.LastWatch(), o.r.lastWatch) {
		o.t.Fatalf("%s: watch hit %+v; oracle %+v", label, e.LastWatch(), o.r.lastWatch)
	}
	return rwhy
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestStopsMatchOracle holds Step, Continue and ReverseContinue to the
// oracle over every input: the four cases a block-engine stop could get
// wrong, checked to occur, then a seeded schedule of every command with
// breakpoints and watches coming and going. ReverseContinue scans on
// GOMAXPROCS machines, so -cpu varies its width.
func TestStopsMatchOracle(t *testing.T) {
	var atIntervalStart, atFault, watchAndBreak, fromBreak int
	for i, w := range oracleWindows(t) {
		t.Run(w.name, func(t *testing.T) {
			o := newOracleRun(t, w)
			window := o.e.Window()

			// A breakpoint at the first PC of an interval, the one the
			// next log's header restores.
			if logs := o.e.logs; len(logs) > 1 && logs[0].Length > 0 {
				b := logs[0].Length
				o.seek(b)
				pc := o.e.PC()
				o.addBreak(pc)
				o.seek(b - 1)
				if o.do("step 3") == StopBreak && o.e.Pos() == b {
					atIntervalStart++
				}
				o.seek(0)
				o.do("continue")
				o.seek(window)
				o.do("reverse continue")
				o.clearBreak(pc)
			}

			// A breakpoint on the faulting instruction the window ends
			// before.
			if f := o.e.Fault(); f != nil && window > 0 {
				o.addBreak(f.PC)
				o.seek(window - 1)
				if o.do("step 5") == StopBreak && o.e.Done() {
					atFault++
				}
				o.seek(0)
				for k := 0; k < 4 && o.do("continue") == StopBreak; k++ {
				}
				o.seek(window)
				o.do("reverse continue")
				o.clearBreak(f.PC)
			}

			// One instruction that changes a watched word and lands on a
			// breakpoint: forward, the watch stops it; in reverse, the
			// breakpoint after it is met first, then the watch.
			o.seek(window)
			words := append([]uint32{w.watch}, o.e.m.KnownWords()...)
			for _, a := range words[:min(len(words), 24)] {
				if a == 0 {
					continue
				}
				o.seek(0)
				o.addWatch(a)
				if o.do("continue") != StopWatch {
					o.clearWatch(a)
					continue
				}
				pos, pc := o.e.Pos(), o.e.PC()
				o.addBreak(pc)
				o.seek(0)
				if o.do("continue") == StopWatch && o.e.Pos() == pos {
					watchAndBreak++
				}
				o.do("continue") // starts on the breakpoint
				o.seek(window)
				for k := 0; k < 8 && o.do("reverse continue") != StopStart; k++ {
				}
				o.clearAll()
				break
			}

			// A start position that is itself a breakpoint.
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 3 && window > 0; k++ {
				o.seek(uint64(rng.Int63n(int64(window))))
				start := o.e.Pos()
				o.addBreak(o.e.PC())
				if o.do("step 1") != StopEnd && o.e.Pos() == start+1 {
					fromBreak++
				}
				o.do("continue")
				o.do("reverse continue")
				o.do("reverse continue")
				o.clearAll()
			}

			oracleSchedule(t, o, w, int64(i))
			t.Logf("window %d in %d intervals; watch with break %d", window, len(o.e.logs), watchAndBreak)
		})
	}
	t.Logf("stops at an interval start %d, at the fault %d, watch with break %d, from a breakpoint %d",
		atIntervalStart, atFault, watchAndBreak, fromBreak)
	if atIntervalStart == 0 || atFault == 0 || watchAndBreak == 0 || fromBreak == 0 {
		t.Errorf("vacuous: stops at an interval start %d, at the fault %d, watch with break %d, from a breakpoint %d",
			atIntervalStart, atFault, watchAndBreak, fromBreak)
	}
}

// oracleSchedule runs 60 seeded commands on o: steps, continues, seeks,
// reverse steps and reverse continues, with a breakpoint on a PC of the
// trail and a watch on a word a register points at or the window's watch
// word toggled between them.
func oracleSchedule(t *testing.T, o *oracleRun, w oracleWindow, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	window := o.e.Window()
	counts := []uint64{1, 2, 3, 17, 100, 1 << 40}
	for i := 0; i < 60; i++ {
		switch k := rng.Intn(10); k {
		case 0, 1:
			o.do(fmt.Sprintf("step %d", counts[rng.Intn(len(counts))]))
		case 2:
			o.do("continue")
		case 3:
			o.seek(uint64(rng.Int63n(int64(window) + 1)))
		case 4:
			o.do(fmt.Sprintf("rstep %d", counts[rng.Intn(len(counts)-1)]))
		case 5, 6:
			o.do("reverse continue")
		case 7:
			if pcs := o.e.Backtrace(); len(pcs) > 0 && len(o.e.Breakpoints()) < 2 {
				o.addBreak(pcs[rng.Intn(len(pcs))].PC)
			} else {
				for _, pc := range o.e.Breakpoints() {
					o.clearBreak(pc)
				}
			}
		default:
			if len(o.e.Watches()) > 0 {
				for _, a := range o.e.Watches() {
					o.clearWatch(a)
				}
				continue
			}
			a := w.watch
			if k == 8 || a == 0 {
				regs := o.e.Registers().Regs
				a = regs[rng.Intn(len(regs))] &^ 3
			}
			if _, known := o.e.ReadWord(a); known && a != 0 {
				o.addWatch(a)
			}
		}
	}
}
