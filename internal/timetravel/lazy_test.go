package timetravel

// lazy_test.go holds the engine that opens on the tail to the engine that
// replays the whole window: the same commands must stop at the same
// positions for the same reasons with the same registers, backtrace, watch
// transition and memory, whichever command fills in the older history.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/fll"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

// lazyInput is one recorded thread and the configuration both engines
// open it with.
type lazyInput struct {
	name  string
	img   *asm.Image
	rep   *core.CrashReport
	tid   int
	cfg   Config
	watch uint32 // a word worth watching, 0 for none
}

// minPages is the fewest replay pages the whole window of rep's thread tid
// replays in: a budget that binds at the window's end.
func minPages(t *testing.T, img *asm.Image, rep *core.CrashReport, tid int) int {
	t.Helper()
	ok := func(pages int) bool {
		r := core.NewReplayer(img, rep.FLLs[tid])
		r.LogCodeLoads, r.DictOptions, r.MaxPages = rep.LogCodeLoads, rep.DictOptions, pages
		_, err := r.Run()
		return err == nil
	}
	lo, hi := 1, 1
	for !ok(hi) {
		lo, hi = hi+1, 2*hi
	}
	for lo < hi {
		if mid := (lo + hi) / 2; ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// phasesProgram rewrites x in one loop, then only reads it in a second that
// outlasts an interval, so the tail reads a word whose changes and whose
// writer's PC all lie in older history.
const phasesProgram = `
        .data
x:      .word 0
        .text
main:   la   s1, x
        li   t0, 300
p1:     lw   t1, (s1)
        addi t1, t1, 3
        sw   t1, (s1)
        addi t0, t0, -1
        bnez t0, p1
        li   t0, 300
p2:     lw   t1, (s1)
        addi t0, t0, -1
        bnez t0, p2
        lw   a0, (zero)
`

// lazyInputs records the inputs: every twin program at 32-instruction
// intervals; a page storm cut so that its last interval holds fewer than
// TraceDepth instructions, and again as one interval; an mcf window under
// the tightest page budget it replays in; phasesProgram; and
// codePatchProgram under LogCodeLoads, whose patch lands in an older
// interval than the tail.
func lazyInputs(t *testing.T) []lazyInput {
	var in []lazyInput
	for _, name := range slices.Sorted(maps.Keys(cputest.TwinPrograms)) {
		img := asm.MustAssemble(name+".s", cputest.TwinPrograms[name])
		_, rep, _ := core.Record(img, kernel.Config{MaxSteps: 5_000}, core.Config{IntervalLength: 32, Cache: tinyCache()})
		if len(rep.FLLs[0]) > 0 {
			in = append(in, lazyInput{name: "twin/" + name, img: img, rep: rep, cfg: Config{CheckpointEvery: 64}})
		}
	}

	storm := strings.Replace(pageStormProgram, "li   s2, 6000", "li   s2, 600", 1)
	rep, img := recordCrash(t, storm, 1<<20)
	window := rep.FLLs[0][0].Length
	in = append(in, lazyInput{name: "storm/one-interval", img: img, rep: rep, cfg: Config{CheckpointEvery: 100},
		watch: img.MustSymbol("pool") + 8})
	interval := uint64(300)
	for window%interval == 0 || window%interval >= TraceDepth {
		interval++
	}
	rep, img = recordCrash(t, storm, interval)
	in = append(in, lazyInput{name: fmt.Sprintf("storm/last-%d", window%interval), img: img, rep: rep,
		cfg: Config{CheckpointEvery: 100}, watch: img.MustSymbol("pool") + 8})

	rep, img = specWindow(t, "mcf", 60_000, 25_000)
	in = append(in, lazyInput{name: "mcf/max-pages", img: img, rep: rep,
		cfg: Config{CheckpointEvery: 2_000, MaxPages: minPages(t, img, rep, 0)}})

	img = asm.MustAssemble("phases.s", phasesProgram)
	_, rep, _ = core.Record(img, kernel.Config{}, core.Config{IntervalLength: 256, Cache: tinyCache()})
	in = append(in, lazyInput{name: "phases", img: img, rep: rep, cfg: Config{CheckpointEvery: 64},
		watch: img.MustSymbol("x")})

	// A patch that only doubles the loop's step leaves thousands of
	// instructions after it, so it lands long before the tail.
	img = asm.MustAssemble("patch.s", codePatchProgram)
	patch := binary.LittleEndian.AppendUint32(nil,
		isa.MustEncode(isa.Instruction{Op: isa.OpADDI, Rd: isa.RegT0, Rs1: isa.RegT0, Imm: 2}))
	res, rep, _ := core.Record(img, kernel.Config{Inputs: map[string][]byte{"stdin": patch}},
		core.Config{IntervalLength: 256, Cache: tinyCache(), LogCodeLoads: true})
	if res.Crash == nil {
		t.Fatal("the code-patch program did not crash")
	}
	if logs := rep.FLLs[res.Crash.TID]; len(logs) < 4 {
		t.Fatalf("the code-patch window has %d intervals; the patch must land before the tail", len(logs))
	}
	in = append(in, lazyInput{name: "code-patch", img: img, rep: rep, tid: -1, cfg: Config{CheckpointEvery: 64},
		watch: img.MustSymbol("slot")})
	return in
}

// lazyPair drives an engine opened on the tail and one committed to the
// whole window through the same commands.
type lazyPair struct {
	t           *testing.T
	lazy, eager *Engine
	// deferReads compares, at each stop, only the words the tail has
	// touched, and keeps the schedule's seeks and reverse steps in the
	// tail, so that the lazy engine stays on the tail until a watch or a
	// reverse continue needs more; the schedule's end compares the rest.
	deferReads bool
	onTail     int // stops compared with the lazy engine on the tail
}

func newLazyPair(t *testing.T, in lazyInput, deferReads bool) *lazyPair {
	lazy, _, err := NewEngineForThread(in.img, in.rep, in.tid, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	eager, _, err := openFilled(in.img, in.rep, in.tid, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &lazyPair{t: t, lazy: lazy, eager: eager, deferReads: deferReads}
}

// probes are words no recorded window touches: the null page, the top of
// the address space, and a word past the end of the text.
func probes(img *asm.Image) []uint32 {
	return []uint32{0, 0x40, 0xFFFF_FFFC, img.TextBase + uint32(len(img.Text)) + 64}
}

// same fails unless the two engines agree on everything a developer can
// read. With all set it reads every word the eager engine knows, every
// text word and the probes on both, which fills the lazy engine unless the
// tail touched them all.
func (p *lazyPair) same(when string, all bool) {
	p.t.Helper()
	l, e := p.lazy, p.eager
	if l.store.anchor() > 0 {
		p.onTail++
	}
	if l.Pos() != e.Pos() || l.Done() != e.Done() || l.Window() != e.Window() {
		p.t.Fatalf("%s: lazy at %d (done %v), eager at %d (done %v)", when, l.Pos(), l.Done(), e.Pos(), e.Done())
	}
	if l.Registers() != e.Registers() {
		p.t.Fatalf("%s: registers at %d differ:\n lazy  %+v\n eager %+v", when, l.Pos(), l.Registers(), e.Registers())
	}
	if a, b := l.Backtrace(), e.Backtrace(); !slices.Equal(a, b) {
		p.t.Fatalf("%s: backtrace at %d differs:\n lazy  %x\n eager %x", when, l.Pos(), a, b)
	}
	if !reflect.DeepEqual(l.LastWatch(), e.LastWatch()) {
		p.t.Fatalf("%s: last watch %+v, eager %+v", when, l.LastWatch(), e.LastWatch())
	}
	if !slices.Equal(l.Breakpoints(), e.Breakpoints()) || !slices.Equal(l.Watches(), e.Watches()) {
		p.t.Fatalf("%s: stops differ", when)
	}
	if !reflect.DeepEqual(l.Fault(), e.Fault()) {
		p.t.Fatalf("%s: fault %+v, eager %+v", when, l.Fault(), e.Fault())
	}
	words := e.m.KnownWords()
	for a := l.img.TextBase; int(a-l.img.TextBase) < len(l.img.Text); a += 4 {
		words = append(words, a)
	}
	words = append(words, probes(l.img)...)
	for _, a := range words {
		if !all && p.deferReads && l.store.anchor() > 0 && !l.m.Known(a) {
			continue
		}
		lv, lk := l.ReadWord(a)
		ev, ek := e.ReadWord(a)
		if lv != ev || lk != ek {
			p.t.Fatalf("%s: word %#x at %d: lazy %#x/%v, eager %#x/%v", when, a, l.Pos(), lv, lk, ev, ek)
		}
	}
}

// do runs one command on both engines and holds them to each other.
func (p *lazyPair) do(what string, run func(e *Engine) (StopReason, error)) {
	p.t.Helper()
	lwhy, lerr := run(p.lazy)
	ewhy, eerr := run(p.eager)
	if lwhy != ewhy || errText(lerr) != errText(eerr) {
		p.t.Fatalf("%s: lazy %v, %v; eager %v, %v", what, lwhy, lerr, ewhy, eerr)
	}
	if eerr != nil {
		p.t.Fatalf("%s: %v", what, eerr)
	}
	p.same(what, false)
}

// both applies a stop toggle to both engines.
func (p *lazyPair) both(f func(e *Engine)) {
	f(p.lazy)
	f(p.eager)
}

// lazySchedule runs n seeded commands: steps, continues, seeks (half of
// them into the tail, all with deferReads), reverse steps (kept in the
// tail with deferReads) and reverse continues (with deferReads only among
// the last three commands: they fill), with a
// breakpoint on a PC of the trail and a watch toggled between them on a
// word a register points at, the input's watch word, a word the lazy
// engine has touched or one the eager engine has (with deferReads, half of
// the time a word the tail touches by the window's end). Every third seed
// without deferReads sets a watch before the first command, which is then
// a Continue.
func lazySchedule(p *lazyPair, in lazyInput, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	window := p.eager.Window()
	_, tail := p.lazy.tail()
	counts := []uint64{1, 2, 3, 17, 100, 1 << 40}
	// ends are the words the tail touches by the window's end: watched from
	// an earlier position in the tail, each is one the tail has yet to touch
	// and older history may know.
	var ends []uint32
	watchable := func() uint32 {
		if len(ends) > 0 && rng.Intn(2) == 0 {
			return ends[rng.Intn(len(ends))]
		}
		switch rng.Intn(4) {
		case 0:
			if in.watch != 0 {
				return in.watch
			}
		case 1, 2:
			e := []*Engine{p.lazy, p.eager}[rng.Intn(2)]
			if words := e.m.KnownWords(); len(words) > 0 {
				return words[rng.Intn(len(words))]
			}
		}
		regs := p.lazy.Registers().Regs
		return regs[rng.Intn(len(regs))] &^ 3
	}
	if seed%3 == 0 && !p.deferReads {
		what := "first continue"
		if a := watchable(); a != 0 {
			p.both(func(e *Engine) { e.AddWatch(a) })
			what = fmt.Sprintf("first continue, watching %#x", a)
		}
		p.do(what, (*Engine).Continue)
	}
	if p.deferReads {
		p.do("continue", (*Engine).Continue)
		ends = p.lazy.m.KnownWords()
	}
	for i := 0; i < n; i++ {
		var what string
		var run func(e *Engine) (StopReason, error)
		k := rng.Intn(11)
		// Reverse continues, seeks anywhere and long reverse steps may fill:
		// with deferReads, keep them to the schedule's last commands.
		inTail := p.deferReads && i < n-3
		if k == 7 && inTail {
			k = 9
		}
		switch k {
		case 0, 1:
			c := counts[rng.Intn(len(counts))]
			what, run = fmt.Sprintf("step %d", c), func(e *Engine) (StopReason, error) { return e.Step(c) }
		case 2, 3:
			what, run = "continue", (*Engine).Continue
		case 4, 5:
			to := uint64(rng.Int63n(int64(window) + 1))
			if (inTail || rng.Intn(2) == 0) && window >= tail+TraceDepth {
				to = window - uint64(rng.Int63n(int64(window-tail-TraceDepth)+1))
			}
			what, run = fmt.Sprintf("seek %d", to), func(e *Engine) (StopReason, error) { return StopStep, e.SeekTo(to) }
		case 6:
			c := counts[rng.Intn(len(counts)-1)]
			if pos := p.eager.Pos(); inTail && pos >= tail+TraceDepth {
				c = min(c, pos-tail-TraceDepth)
			}
			what, run = fmt.Sprintf("rstep %d", c), func(e *Engine) (StopReason, error) { return e.ReverseStep(c) }
		case 7:
			what, run = "reverse continue", (*Engine).ReverseContinue
		case 8:
			if pcs := p.lazy.Backtrace(); len(pcs) > 0 && len(p.lazy.Breakpoints()) < 2 {
				pc := pcs[rng.Intn(len(pcs))].PC
				p.both(func(e *Engine) { e.AddBreak(pc) })
			} else {
				for _, pc := range p.eager.Breakpoints() {
					p.both(func(e *Engine) { e.ClearBreak(pc) })
				}
			}
			continue
		default:
			if ws := p.eager.Watches(); len(ws) > 0 {
				for _, a := range ws {
					p.both(func(e *Engine) { e.ClearWatch(a) })
				}
			} else if a := watchable(); a != 0 {
				p.both(func(e *Engine) { e.AddWatch(a) })
			}
			continue
		}
		p.do(what, run)
	}
	if p.deferReads && len(ends) > 0 {
		// From the tail, a reverse continue watching a word the tail has
		// touched, or a seek before the tail's first TraceDepth.
		if words := p.lazy.m.KnownWords(); seed%2 == 0 && len(words) > 0 {
			for _, a := range p.eager.Watches() {
				p.both(func(e *Engine) { e.ClearWatch(a) })
			}
			a := words[rng.Intn(len(words))]
			p.both(func(e *Engine) { e.AddWatch(a) })
			p.do("reverse continue", (*Engine).ReverseContinue)
		} else {
			to := uint64(rng.Int63n(int64(tail + TraceDepth)))
			p.do(fmt.Sprintf("seek %d", to), func(e *Engine) (StopReason, error) { return StopStep, e.SeekTo(to) })
		}
	}
	p.same("schedule end", true)
}

// tailReverseContinue opens the pair at the window's end, seeks both into
// the tail and reverse-continues from there watching a word the tail has
// touched by then — one older history touched too, where there is one — or
// with a breakpoint on a PC older history ran.
func tailReverseContinue(p *lazyPair, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	_, tail := p.lazy.tail()
	if err := p.eager.SeekTo(uint64(rng.Int63n(int64(tail) + 1))); err != nil {
		p.t.Fatal(err)
	}
	pcs := p.eager.Backtrace()
	if err := p.eager.SeekTo(tail); err != nil {
		p.t.Fatal(err)
	}
	older := p.eager.m.KnownWords()
	p.do("continue", (*Engine).Continue)
	window := p.eager.Window()
	if window > tail+TraceDepth {
		to := window - uint64(rng.Int63n(int64(window-tail-TraceDepth)+1))
		p.do(fmt.Sprintf("seek %d", to), func(e *Engine) (StopReason, error) { return StopStep, e.SeekTo(to) })
	}
	words := p.lazy.m.KnownWords()
	if both := slices.DeleteFunc(slices.Clone(words), func(a uint32) bool {
		_, found := slices.BinarySearch(older, a)
		return !found
	}); len(both) > 0 {
		words = both
	}
	if seed%2 == 0 && len(words) > 0 {
		a := words[rng.Intn(len(words))]
		p.both(func(e *Engine) { e.AddWatch(a) })
	} else if len(pcs) > 0 {
		pc := pcs[rng.Intn(len(pcs))].PC
		p.both(func(e *Engine) { e.AddBreak(pc) })
	}
	p.do("reverse continue", (*Engine).ReverseContinue)
	p.same("after the reverse continue", true)
}

// TestLazyEngineMatchesEager holds an engine that opens on the tail to one
// that replays the whole window from the start, over seeded schedules on
// every input: once comparing all of memory at every stop, so the first
// stop's reads fill in the older history, and once reading only what the
// tail touched until the schedule's end, so the lazy engine stays on the
// tail until a motion or a watch needs more; then a reverse continue from
// inside the tail.
func TestLazyEngineMatchesEager(t *testing.T) {
	var shortLast, oneInterval, onTail, budget int
	for _, in := range lazyInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			logs := in.rep.FLLs[max(in.tid, 0)]
			if in.tid < 0 && in.rep.Crash != nil {
				logs = in.rep.FLLs[in.rep.Crash.TID]
			}
			if len(logs) == 1 {
				oneInterval++
			} else if logs[len(logs)-1].Length < TraceDepth {
				shortLast++
			}
			if in.cfg.MaxPages > 0 {
				budget++
			}
			for seed := int64(0); seed < 6; seed++ {
				for _, deferReads := range []bool{false, true} {
					p := newLazyPair(t, in, deferReads)
					lazySchedule(p, in, seed, 24)
					onTail += p.onTail
				}
				tailReverseContinue(newLazyPair(t, in, true), seed)
			}
		})
	}
	t.Logf("inputs with a last interval shorter than TraceDepth %d, of one interval %d, under a page budget %d; stops compared on the tail %d",
		shortLast, oneInterval, budget, onTail)
	if shortLast == 0 || oneInterval == 0 || budget == 0 || onTail == 0 {
		t.Errorf("vacuous: short last interval %d, one interval %d, page budget %d, stops on the tail %d",
			shortLast, oneInterval, budget, onTail)
	}
}

// corruptOlder returns a copy of rep whose thread tid carries one bit of the
// logged first-load values flipped in the interval before the tail: the
// first bit from the middle of its entries on whose flip the replay of the
// window diverges.
func corruptOlder(t *testing.T, img *asm.Image, rep *core.CrashReport, tid int) *core.CrashReport {
	t.Helper()
	logs := rep.FLLs[tid]
	i := len(logs) - 2
	l, err := logs[i].Open()
	if err != nil {
		t.Fatal(err)
	}
	for bit := 8 * len(l.Entries) / 2; bit < 8*len(l.Entries); bit++ {
		bad := *l
		bad.Entries = slices.Clone(l.Entries)
		bad.Entries[bit/8] ^= 1 << (bit % 8)
		out := *rep
		out.FLLs = maps.Clone(rep.FLLs)
		out.FLLs[tid] = append(slices.Clone(logs[:i]), append(core.WrapFLLs([]*fll.Log{&bad}), logs[i+1:]...)...)
		if _, err := core.NewReplayer(img, out.FLLs[tid]).Run(); errors.Is(err, core.ErrDiverged) {
			return &out
		}
	}
	t.Fatalf("no flipped bit of interval %d makes the replay diverge", i)
	return nil
}

// TestLazyOlderDivergenceSurfaces: a logged value corrupted in an interval
// older than the tail makes the eager Continue fail; the lazy Continue
// reaches the crash, and the first command that needs older history returns
// the eager error word for word, as does every one after it, while the
// engine stays where it was and no word it could not derive reads known.
func TestLazyOlderDivergenceSurfaces(t *testing.T) {
	rep, img := specWindow(t, "mcf", 120_000, 40_000)
	bad := corruptOlder(t, img, rep, 0)

	eager, _, err := openFilled(img, bad, -1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, want := eager.Continue()
	if !errors.Is(want, core.ErrDiverged) {
		t.Fatalf("eager continue over the corrupted window: %v, want a divergence", want)
	}

	good, _, err := NewEngineForThread(img, rep, -1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if why, err := good.Continue(); err != nil || why != StopEnd {
		t.Fatal(why, err)
	}
	for _, cmd := range []struct {
		name string
		run  func(e *Engine) error
	}{
		{"read an untouched word", func(e *Engine) error {
			if _, known := e.ReadWord(e.img.TextBase); known {
				return errors.New("a text word the tail never touched read known")
			}
			return e.fillErr
		}},
		{"mem command on an untouched word", func(e *Engine) error {
			out := e.Exec(Command{Cmd: "mem", Addr: e.img.TextBase, N: 4})
			if out.Error == "" {
				return nil
			}
			if len(out.Mem) != 0 {
				return errors.New("a failed mem command answered words")
			}
			return errors.New(out.Error)
		}},
		{"watch command on an untouched word", func(e *Engine) error {
			out := e.Exec(Command{Cmd: "watch", Addr: e.img.TextBase})
			if out.Error == "" {
				return nil
			}
			if len(e.Watches()) != 0 {
				return errors.New("a failed watch command set a watch")
			}
			return errors.New(out.Error)
		}},
		{"seek to the start", func(e *Engine) error { return e.SeekTo(0) }},
		{"reverse continue with a breakpoint", func(e *Engine) error {
			e.AddBreak(e.PC())
			defer e.ClearBreak(e.PC())
			_, err := e.ReverseContinue()
			return err
		}},
		{"watch an untouched word", func(e *Engine) error {
			e.AddWatch(e.img.TextBase)
			defer e.ClearWatch(e.img.TextBase)
			_, err := e.ReverseStep(1)
			return err
		}},
	} {
		t.Run(cmd.name, func(t *testing.T) {
			e, _, err := NewEngineForThread(img, bad, -1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if why, err := e.Continue(); err != nil || why != StopEnd {
				t.Fatalf("lazy continue: %v, %v; want the crash", why, err)
			}
			if e.Registers() != good.Registers() || !slices.Equal(e.Backtrace(), good.Backtrace()) {
				t.Fatal("the lazy engine stands elsewhere than on the intact window")
			}
			for round := 0; round < 2; round++ {
				if err := cmd.run(e); errText(err) != errText(want) {
					t.Fatalf("round %d: %v; want the eager error %v", round, err, want)
				}
				if e.Pos() != e.Window() || e.Registers() != good.Registers() || !slices.Equal(e.Backtrace(), good.Backtrace()) {
					t.Fatalf("round %d: the engine moved to %d", round, e.Pos())
				}
			}
			// What the tail touched stays readable; nothing else reads known.
			for _, a := range append(good.m.KnownWords(), probes(img)...) {
				v, known := e.ReadWord(a)
				if good.m.Known(a) {
					if gv, _ := good.ReadWord(a); !known || v != gv {
						t.Fatalf("tail word %#x: %#x/%v, want %#x", a, v, known, gv)
					}
				} else if known {
					t.Fatalf("word %#x reads known with older history missing", a)
				}
			}
		})
	}
}

// TestTailGridLaidByBackwardMotion: of the grid over the tail, an engine's
// open lays only the last checkpoint before its first motion's target, so
// a reverse step from there re-executes less than K. The first backward
// motion below that checkpoint restores the anchor, re-executes from the
// tail's start and lays the grid up to its target; a motion after it into
// the stretch it crossed re-executes less than K. Throughout, the engine
// stops where the eager engine stops, with the same registers, backtrace
// and known words. The open is either the Continue to the crash or a
// SeekTo into the middle of the tail, which also plants the near
// checkpoint.
func TestTailGridLaidByBackwardMotion(t *testing.T) {
	rep, img := specWindow(t, "mcf", 120_000, 40_000)
	for _, open := range []string{"continue", "seek"} {
		t.Run(open, func(t *testing.T) {
			p := newLazyPair(t, lazyInput{img: img, rep: rep, cfg: Config{}}, true)
			l := p.lazy
			k, d := l.cfg.CheckpointEvery, l.store.nearDistance()
			_, tailStart := l.tail()
			to := l.Window()
			if open == "seek" {
				to = tailStart + (l.Window()-tailStart)/2
			}
			last := (to - 1) / k * k
			if last <= (tailStart/k+1)*k {
				t.Fatalf("tail [%d, %d) too short to leave part of its grid to a backward motion", tailStart, to)
			}
			// grid is the K grid over [from, to].
			grid := func(from, to uint64) []uint64 {
				var g []uint64
				for pos := (from + k - 1) / k * k; pos <= to; pos += k {
					g = append(g, pos)
				}
				return g
			}
			have := func(when string, want ...[]uint64) {
				t.Helper()
				w := slices.Sorted(slices.Values(slices.Concat(append(want, []uint64{tailStart})...)))
				var got []uint64
				for _, c := range l.store.list {
					got = append(got, c.pos)
				}
				if !slices.Equal(got, slices.Compact(w)) {
					t.Fatalf("%s: checkpoints at %v; want the anchor and %v", when, got, want)
				}
			}
			grids := mTailGrids.Value()
			// motion runs one command on both engines and checks what the
			// lazy one re-executed and counted.
			motion := func(what string, run func(e *Engine) (StopReason, error), reexec, tailGrids uint64) {
				t.Helper()
				before := l.reexecuted
				p.do(what, run)
				if l.store.anchor() != tailStart {
					t.Fatalf("%s: the engine's history starts at %d; want the tail's %d", what, l.store.anchor(), tailStart)
				}
				if got := l.reexecuted - before; got != reexec {
					t.Fatalf("%s: re-executed %d instructions; want %d", what, got, reexec)
				}
				if got := mTailGrids.Value() - grids; got != tailGrids {
					t.Fatalf("%s: bugnet_debug_tail_grids_total rose by %v; want %v", what, got, tailGrids)
				}
			}
			seek := func(pos uint64) func(e *Engine) (StopReason, error) {
				return func(e *Engine) (StopReason, error) { return StopStep, e.SeekTo(pos) }
			}
			rstep := func(n uint64) func(e *Engine) (StopReason, error) {
				return func(e *Engine) (StopReason, error) { return e.ReverseStep(n) }
			}

			// The open lays the grid checkpoint before its target, and a
			// reverse step from the target restores it, or the near
			// checkpoint a seek planted.
			if open == "continue" {
				motion("continue", (*Engine).Continue, to-tailStart, 0)
				have("after the open", grid(last, to))
				motion("rstep 1", rstep(1), to-1-last, 0)
			} else {
				motion(fmt.Sprintf("seek %d", to), seek(to), to-tailStart, 0)
				have("after the open", grid(last, to), []uint64{to - d})
				motion("rstep 1", rstep(1), to-1-max(last, to-d), 0)
			}

			// The first motion below it re-executes from the anchor and
			// lays the grid on its way, planting the near checkpoint.
			below := tailStart + (last-tailStart)/2
			motion(fmt.Sprintf("rstep to %d", below), rstep(l.Pos()-below), below-tailStart, 1)
			have("after the first motion below the open's checkpoint", grid(tailStart+1, below), []uint64{below - d}, grid(last, to))

			// A seek into the stretch that motion crossed re-executes from
			// the grid.
			back := below - k/4
			motion(fmt.Sprintf("seek %d", back), seek(back), back-max(tailStart, back/k*k), 1)
			for i := 0; i < 20; i++ {
				p.do(fmt.Sprintf("rstep 1 (%d)", i), rstep(1))
			}
			if l.store.anchor() != tailStart || mTailGrids.Value()-grids != 1 {
				t.Fatalf("the engine left the tail (start %d) or counted again (%v)", l.store.anchor(), mTailGrids.Value()-grids)
			}
			p.same("end", true)
		})
	}
}
