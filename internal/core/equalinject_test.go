package core

// equalinject_test.go holds the replayer, which stores an injected first
// load only when it differs from replay memory, to the one it replaced,
// which stored every injected value: contents, known set, counts and
// errors must be the same at every position, and only the copy-on-write
// traffic may differ.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/workload"
)

// alwaysStore rewires m's hooks to the reference behavior: every injected
// value is written to replay memory, and every injected code word flushes
// the fetch and block caches, equal to memory or not. It survives
// Snapshot/Restore (the hooks read the state's current memory) but not
// Reset.
func alwaysStore(m *ReplayMachine) {
	st := m.st
	st.c.OnLoggable = func(wordAddr uint32, isWrite bool) {
		cur, err := st.mem.LoadWord(wordAddr)
		if err != nil {
			st.fail(fmt.Errorf("%w: replay memory read %#x: %v", ErrDiverged, wordAddr, err))
			return
		}
		v, injected, err := st.reader.Op(cur)
		if err != nil {
			st.fail(fmt.Errorf("%w: %v", ErrDiverged, err))
			return
		}
		if injected {
			st.injected++
			if err := st.mem.StoreWord(wordAddr, v); err != nil {
				st.fail(fmt.Errorf("%w: inject at %#x: %v", ErrDiverged, wordAddr, err))
				return
			}
		}
		if st.known != nil {
			st.known.Add(wordAddr)
		}
		if st.r.OnAccess != nil {
			st.r.OnAccess(st.c.PC, wordAddr, isWrite)
		}
	}
	if !st.r.LogCodeLoads {
		return
	}
	st.c.OnFetch = func(pc uint32) {
		if st.trace != nil {
			st.trace.push(TraceEntry{PC: pc})
		}
		wordAddr := pc &^ 3
		if !st.mem.TryMap(wordAddr, 4) {
			st.fail(fmt.Errorf("%w: code load at %#x exceeds the replay page budget", ErrDiverged, pc))
			return
		}
		cur, _ := st.mem.LoadWord(wordAddr)
		v, injected, err := st.reader.Op(cur)
		if err != nil {
			st.fail(fmt.Errorf("%w: code load: %v", ErrDiverged, err))
			return
		}
		if injected {
			st.injected++
			st.mem.StoreWord(wordAddr, v)
			st.c.InvalidateFetchCache()
		}
	}
}

// mustMatchReference compares everything a replay exposes.
func mustMatchReference(t *testing.T, label string, got, ref *ReplayMachine) {
	t.Helper()
	if got.Pos() != ref.Pos() || got.Done() != ref.Done() {
		t.Fatalf("%s: pos %d done %v, reference pos %d done %v", label, got.Pos(), got.Done(), ref.Pos(), ref.Done())
	}
	if got.Registers() != ref.Registers() {
		t.Fatalf("%s: registers differ at pos %d", label, got.Pos())
	}
	if g, r := got.Result(), ref.Result(); !reflect.DeepEqual(g, r) {
		t.Fatalf("%s: result at pos %d\n got %+v\nwant %+v", label, got.Pos(), g, r)
	}
	gp, rp := got.st.mem.PageNumbers(), ref.st.mem.PageNumbers()
	if !reflect.DeepEqual(gp, rp) {
		t.Fatalf("%s: mapped pages differ at pos %d: %d vs %d", label, got.Pos(), len(gp), len(rp))
	}
	for _, n := range gp {
		if *got.st.mem.Page(n) != *ref.st.mem.Page(n) {
			t.Fatalf("%s: page %#x differs at pos %d", label, n, got.Pos())
		}
	}
	if !reflect.DeepEqual(got.st.known.Words(), ref.st.known.Words()) {
		t.Fatalf("%s: known sets differ at pos %d", label, got.Pos())
	}
}

// lockstep replays logs on both replayers, comparing every 1000
// instructions and at the end — or at the error, which must be the same.
func lockstep(t *testing.T, label string, img *asm.Image, logs []*fll.Ref, codeLoads bool) (got, ref *ReplayMachine) {
	t.Helper()
	build := func() *ReplayMachine {
		r := NewReplayer(img, logs)
		r.LogCodeLoads = codeLoads
		r.TraceDepth = 8
		return r.Machine(MachineOptions{TrackKnown: true})
	}
	got, ref = build(), build()
	alwaysStore(ref)
	for {
		_, gerr := got.StepN(1000)
		_, rerr := ref.StepN(1000)
		if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
			t.Fatalf("%s: error %v, reference %v", label, gerr, rerr)
		}
		mustMatchReference(t, label, got, ref)
		if gerr != nil || got.Done() {
			return got, ref
		}
	}
}

// TestEqualInjectionMatchesAlwaysStoreWorkloads runs the oracle over the
// SPEC analogues and both threads of the shared-memory workload, through
// each one's initialization phase and 100 K steps beyond it. The tiny cache
// evicts first-load bits constantly, so most loads are re-logged with the
// value memory already holds. Under -race it takes the -short window, as
// the full one runs for minutes there.
func TestEqualInjectionMatchesAlwaysStoreWorkloads(t *testing.T) {
	short := testing.Short() || raceEnabled
	for _, w := range append(workload.SPEC(), workload.MTShare()) {
		t.Run(w.Name, func(t *testing.T) {
			kcfg := w.Kernel
			kcfg.MaxSteps = w.Warmup + 100_000
			if short {
				kcfg.MaxSteps = w.Warmup/8 + 20_000
			}
			m := kernel.New(w.Image, kcfg, nil)
			rec := NewRecorder(m, Config{IntervalLength: 10_000, Cache: tinyCache()})
			m.Run()
			rec.Flush()
			rep := rec.Report()
			if len(rep.FLLs) != max(kcfg.Cores, 1) {
				t.Fatalf("recorded %d threads", len(rep.FLLs))
			}
			for tid, logs := range rep.FLLs {
				got, _ := lockstep(t, fmt.Sprintf("%s/T%d", w.Name, tid), w.Image, logs, false)
				if res := got.Result(); !short && res.Injected == 0 {
					t.Fatalf("T%d: vacuous replay: %+v", tid, res)
				}
			}
		})
	}
}

// TestEqualInjectionMatchesAlwaysStoreFuzz runs the oracle over the cpu
// package's fuzz corpus and seeded mutations of it, with and without code
// loads logged. Fuzzed stores patch the text, so without LogCodeLoads many
// of these replays diverge: both replayers must then fail alike.
func TestEqualInjectionMatchesAlwaysStoreFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seeds := cputest.FuzzSeeds()
	inputs := slices.Clone(seeds)
	for _, seed := range seeds {
		for k := 0; k < 4; k++ {
			mut := append([]byte(nil), seed...)
			for n := 1 + rng.Intn(4); n > 0; n-- {
				mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			}
			inputs = append(inputs, mut)
		}
	}
	for i, data := range inputs {
		img := cputest.FuzzImage(cputest.FuzzWords(data))
		for _, codeLoads := range []bool{false, true} {
			_, rep, _ := Record(img, kernel.Config{MaxSteps: 2_000},
				Config{IntervalLength: 97, Cache: tinyCache(), LogCodeLoads: codeLoads})
			if len(rep.FLLs[0]) == 0 {
				continue // the first fetch faulted: nothing was recorded
			}
			lockstep(t, fmt.Sprintf("input %d codeLoads=%v", i, codeLoads), img, rep.FLLs[0], codeLoads)
		}
	}
}

// codeLoadProgram never writes its own text: under LogCodeLoads every
// fetch is logged once per interval, always with the word the image holds.
const codeLoadProgram = `
        .data
tab:    .word 3, 1, 4, 1, 5, 9, 2, 6
        .text
main:   li   s0, 400
        la   s1, tab
loop:   andi t0, s0, 7
        slli t0, t0, 2
        add  t0, s1, t0
        lw   t1, (t0)
        add  a0, a0, t1
        addi s0, s0, -1
        bnez s0, loop
        li   a7, 1
        syscall
`

// TestCodeLoadReplayKeepsBlockCache: replaying a LogCodeLoads recording of
// a program that does not modify itself matches the reference and, once
// the text is decoded, never flushes the block cache again — the reference
// flushes on every logged fetch.
func TestCodeLoadReplayKeepsBlockCache(t *testing.T) {
	img := asm.MustAssemble("cl.s", codeLoadProgram)
	res, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 500, Cache: tinyCache(), LogCodeLoads: true})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	got, ref := lockstep(t, "code loads", img, rep.FLLs[0], true)
	if n := got.st.c.BlockFlushes(); n != 0 {
		t.Errorf("replay flushed the block cache %d times over unmodified text", n)
	}
	if n := ref.st.c.BlockFlushes(); n < 20 {
		t.Errorf("vacuous: the reference flushed only %d times", n)
	}
}

// TestEqualInjectionSharesPage: a stretch of replay whose injected values
// all equal replay memory copies nothing — every page stays shared with
// the snapshot before it and no page pointer goes stale.
func TestEqualInjectionSharesPage(t *testing.T) {
	img := asm.MustAssemble("eq.s", codeLoadProgram)
	res, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 500, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	m := NewReplayer(img, rep.FLLs[0]).Machine(MachineOptions{TrackKnown: true})
	// The first interval injects the table into empty memory; every later
	// interval re-logs the same eight words.
	stepTo(t, m, 600)
	m.Snapshot()
	gen, injected := m.st.mem.Gen(), m.st.injected
	stepTo(t, m, 2_600)
	if m.st.injected < injected+8*3 {
		t.Fatalf("vacuous: %d injections over four intervals", m.st.injected-injected)
	}
	if own := m.st.private(); len(own) != 0 {
		t.Errorf("value-equal injections left the machine owning %d table parts (%d bytes)", len(own), own.Bytes())
	}
	if m.st.mem.Gen() != gen {
		t.Errorf("Memory.Gen moved %d → %d", gen, m.st.mem.Gen())
	}
}
