package timetravel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/mem"
)

// pageStormProgram moves to the next of 16 pages every eighth iteration,
// re-reading what the previous lap left there: every checkpoint gap
// dirties a handful of pages, grows the known set and re-injects values
// memory already holds. It crashes on a null load after 6000 iterations
// (about 54 K instructions).
const pageStormProgram = `
        .data
pool:   .space 65536
        .text
main:   li   s0, 0
        la   s1, pool
        li   s2, 6000
        li   s3, 16
loop:   srli t0, s0, 3
        rem  t0, t0, s3
        slli t0, t0, 12
        add  t0, s1, t0
        lw   t1, 8(t0)
        add  t1, t1, s0
        sw   t1, 8(t0)
        addi s0, s0, 1
        blt  s0, s2, loop
        lw   a0, (zero)
`

// retained walks what the engine's checkpoints really hold: all is the
// bytes of the distinct table parts any checkpoint references plus every
// checkpoint's fixed cost; onlyCkpts leaves out the parts the live machine
// references too.
func retained(e *Engine) (all, onlyCkpts int64) {
	live := make(map[any]bool)
	e.m.Parts(func(_ uint32, part any) { live[part] = true })
	seen := make(map[any]bool)
	for _, c := range e.store.list {
		fixed := c.snap.SizeBytes() - c.snap.Added().Bytes()
		all += fixed
		onlyCkpts += fixed
		c.snap.Parts(func(key uint32, part any) {
			if seen[part] {
				return
			}
			seen[part] = true
			bytes := mem.Delta{key}.Bytes()
			all += bytes
			if !live[part] {
				onlyCkpts += bytes
			}
		})
	}
	return all, onlyCkpts
}

func accountingEngine(t *testing.T, rep *core.CrashReport, img *asm.Image, budget int64) *Engine {
	t.Helper()
	e, _, err := openFilled(img, rep, -1, Config{CheckpointEvery: 500, CheckpointBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var accountingBudgets = []struct {
	name  string
	bytes int64
}{{"1B", 1}, {"256KB", 256 << 10}, {"4MB", 4 << 20}, {"64MB", 64 << 20}}

// TestAccountingForwardPassIsExact: after one forward pass over the window
// the occupancy equals the bytes the surviving checkpoints reference —
// no matter how many evictions handed their parts on to a successor.
func TestAccountingForwardPassIsExact(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	counts := make(map[string]int)
	for _, b := range accountingBudgets {
		e := accountingEngine(t, rep, img, b.bytes)
		if why, err := e.Continue(); err != nil || why != StopEnd {
			t.Fatalf("%s: continue: %v, %v", b.name, why, err)
		}
		count, charged := e.Checkpoints()
		all, only := retained(e)
		if charged != all {
			t.Errorf("%s: %d checkpoints charged %d bytes, reference %d", b.name, count, charged, all)
		}
		if only > all || only == 0 {
			t.Errorf("%s: %d bytes reachable through checkpoints alone, %d in all", b.name, only, all)
		}
		if count > 2 && charged > b.bytes {
			t.Errorf("%s: %d checkpoints hold %d bytes", b.name, count, charged)
		}
		counts[b.name] = count
	}
	// The budgets must bind differently or the evictions went untested.
	if !(counts["1B"] == 2 && counts["1B"] < counts["256KB"] && counts["256KB"] < counts["4MB"] && counts["4MB"] < counts["64MB"]) {
		t.Errorf("checkpoint counts by budget: %v", counts)
	}
}

// TestAccountingNeverUndercharges drives a seeded storm of forward and
// backward motion under each budget. Re-execution re-creates evicted
// checkpoints from older state, runs past surviving ones and has the
// checkpoint the machine shares with evicted under it; through all of it
// the occupancy must cover every byte the checkpoints reference. Each
// budget's rsteps subtest runs a second storm that adds runs of short
// reverse steps, which plant, restore and replace the near checkpoint
// that forward motion then runs past.
func TestAccountingNeverUndercharges(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	for _, b := range accountingBudgets {
		t.Run(b.name, func(t *testing.T) {
			accountingStorm(t, accountingEngine(t, rep, img, b.bytes), b.bytes, false)
			t.Run("rsteps", func(t *testing.T) {
				accountingStorm(t, accountingEngine(t, rep, img, b.bytes), b.bytes+1, true)
			})
		})
	}
}

// accountingStorm runs the seeded storm on e, with runs of up to δ
// reverse steps of up to δ each among its commands when rsteps is set.
func accountingStorm(t *testing.T, e *Engine, seed int64, rsteps bool) {
	rng := rand.New(rand.NewSource(seed))
	e.AddBreak(e.img.MustSymbol("main"))
	window, delta := e.Window(), e.store.nearDistance()
	ops, kinds := 120, 10
	if testing.Short() {
		ops = 40
	}
	if rsteps {
		kinds++
	}
	for i := 0; i < ops; i++ {
		var err error
		var op string
		switch k := rng.Intn(kinds); {
		case k < 2:
			op = "continue"
			_, err = e.Continue()
		case k < 6:
			op = "seek"
			err = e.SeekTo(uint64(rng.Int63n(int64(window) + 1)))
		case k < 9:
			op = "rstep"
			_, err = e.ReverseStep(1 + uint64(rng.Intn(3000)))
		case k < 10:
			op = "rcont"
			_, err = e.ReverseContinue()
		default:
			op = "rsteps"
			for j := rng.Intn(int(delta)); j >= 0 && err == nil; j-- {
				if _, err = e.ReverseStep(1 + uint64(rng.Int63n(int64(delta)))); err == nil {
					mustCover(t, e, fmt.Sprintf("op %d rsteps, %d to go", i, j))
				}
			}
		}
		if err != nil {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
		mustCover(t, e, fmt.Sprintf("op %d %s", i, op))
	}
}

// mustCover fails unless the occupancy covers what the checkpoints hold
// and the checkpoint set is well formed (see mustKeepGrid).
func mustCover(t *testing.T, e *Engine, when string) {
	t.Helper()
	mustKeepGrid(t, e, when)
	count, charged := e.Checkpoints()
	if all, only := retained(e); charged < all || all < only {
		t.Fatalf("%s at pos %d: %d checkpoints charged %d bytes, reference %d (%d through checkpoints alone)",
			when, e.Pos(), count, charged, all, only)
	}
}

// mustKeepGrid fails unless every checkpoint but the anchor, where the
// engine's history starts (0 unless it holds the tail alone), and the near
// one stands on the K grid, and the near one, if any, is among the
// checkpoints: one outside would hold a snapshot alive that no budget
// charges.
func mustKeepGrid(t *testing.T, e *Engine, when string) {
	t.Helper()
	if e.store.near != nil && !slices.Contains(e.store.list, e.store.near) {
		t.Fatalf("%s: the near checkpoint at %d is not among the checkpoints", when, e.store.near.pos)
	}
	for _, c := range e.store.list[1:] {
		if c != e.store.near && c.pos%e.cfg.CheckpointEvery != 0 {
			t.Fatalf("%s: a checkpoint at %d, off the %d grid", when, c.pos, e.cfg.CheckpointEvery)
		}
	}
}

// TestAccountingReexecutionPastSurvivor pins the case the index sets
// alone get wrong. Checkpoints A < C survive, B and D between and after
// them do not; re-execution from A re-creates B, runs past C and
// re-creates D, so D shares B's fresh copies although C, between them,
// holds the first pass's. When B is dropped its successor C names the same
// parts and they would leave the occupancy — while D still holds them —
// had the machine not carried C's set forward into D's.
func TestAccountingReexecutionPastSurvivor(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	e := accountingEngine(t, rep, img, 64<<20)
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	const posA, posB, posC, posD, posE = 1000, 1500, 2000, 2500, 3000
	drop := func(pos uint64) {
		t.Helper()
		i := e.store.at(pos)
		if e.store.list[i].pos != pos {
			t.Fatalf("no checkpoint at %d", pos)
		}
		e.store.drop(i)
	}
	drop(posD)
	drop(posB)
	mustCover(t, e, "after thinning")
	// A seek would skip ahead through C; stepping executes the stretch.
	if err := e.SeekTo(posA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(posD + 7 - posA); err != nil {
		t.Fatal(err)
	}
	mustCover(t, e, "after re-execution")
	drop(posB)
	mustCover(t, e, "after dropping the re-created checkpoint")

	// And the checkpoint the machine shares with going away under it: the
	// next one it takes, at E, still holds D's copies.
	drop(posE)
	drop(posD)
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	drop(posC)
	mustCover(t, e, "after dropping the machine's base")
}

// TestAccountingReexecutionPastNear is the case above with the near
// checkpoint N as the survivor: off the grid, it is passed between two
// grid stops, and the machine must still carry N's set forward into D's.
func TestAccountingReexecutionPastNear(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	e := accountingEngine(t, rep, img, 64<<20)
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	const posA, posB, posN, posD = 1000, 1500, 1800, 2000
	if err := e.SeekTo(posN + e.store.nearDistance()); err != nil {
		t.Fatal(err)
	}
	if e.store.near == nil || e.store.near.pos != posN {
		t.Fatalf("near checkpoint %+v, want one at %d", e.store.near, posN)
	}
	drop := func(pos uint64) {
		t.Helper()
		i := e.store.at(pos)
		if e.store.list[i].pos != pos {
			t.Fatalf("no checkpoint at %d", pos)
		}
		e.store.drop(i)
	}
	drop(posD)
	drop(posB)
	mustCover(t, e, "after thinning")
	if err := e.SeekTo(posA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(posD + 7 - posA); err != nil {
		t.Fatal(err)
	}
	mustCover(t, e, "after re-execution")
	drop(posB)
	mustCover(t, e, "after dropping the re-created checkpoint")
}

// TestAccountingNewestNearReplaced: on a cold engine a long seek plants
// the near checkpoint past every other one, and a long reverse step, back
// inside the grid, drops it as the newest checkpoint, which has no
// successor to inherit its set. Nothing re-executed twice, so the
// occupancy stays exactly what the checkpoints hold.
func TestAccountingNewestNearReplaced(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	e := accountingEngine(t, rep, img, 64<<20)
	exact := func(when string) {
		t.Helper()
		mustKeepGrid(t, e, when)
		_, charged := e.Checkpoints()
		if all, _ := retained(e); charged != all {
			t.Fatalf("%s: charged %d bytes, reference %d", when, charged, all)
		}
	}
	if err := e.SeekTo(5100); err != nil {
		t.Fatal(err)
	}
	if last := e.store.list[len(e.store.list)-1]; last != e.store.near {
		t.Fatalf("newest checkpoint at %d, near %+v", last.pos, e.store.near)
	}
	exact("after the seek")
	if _, err := e.ReverseStep(200); err != nil {
		t.Fatal(err)
	}
	if want := 4900 - e.store.nearDistance(); e.store.near == nil || e.store.near.pos != want {
		t.Fatalf("near checkpoint %+v, want one at %d", e.store.near, want)
	}
	exact("after the reverse step")
}

// TestAccountingInsertBeforeSurvivor pins the other order. Checkpoints A <
// C survive from one pass; a pass from the window start runs past A and
// takes B between them. C still shares A's versions of parts B copied
// again (the known bitmaps A's gap created, which nothing later rewrites),
// so when A is dropped those must stay charged, to C.
func TestAccountingInsertBeforeSurvivor(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	e := accountingEngine(t, rep, img, 64<<20)
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	const posA, posB, posC = 500, 1000, 3000
	for i := len(e.store.list) - 2; i > 0; i-- {
		if p := e.store.list[i].pos; p != posA && p != posC {
			e.store.drop(i)
		}
	}
	mustCover(t, e, "after thinning")
	if err := e.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(posB + 7); err != nil {
		t.Fatal(err)
	}
	i := e.store.at(posA)
	if e.store.list[i].pos != posA || e.store.list[i+1].pos != posB || e.store.list[i+2].pos != posC {
		t.Fatalf("checkpoints around A: %d, %d, %d", e.store.list[i].pos, e.store.list[i+1].pos, e.store.list[i+2].pos)
	}
	mustCover(t, e, "after the second pass")
	e.store.drop(i)
	mustCover(t, e, "after dropping A")
}

// TestAccountingSeekStepPairs: seek and reverse-step pairs, the developer's
// pattern the benchmark times, leave the forward pass's checkpoints as
// they were plus at most the one near checkpoint, and the occupancy at
// most the forward pass's plus that checkpoint's charge, on the mcf window
// whose whole grid fits the default budget.
func TestAccountingSeekStepPairs(t *testing.T) {
	steps, pairs := uint64(2_100_000), 1000
	if testing.Short() {
		steps, pairs = 400_000, 200
	}
	rep, img := specWindow(t, "mcf", steps, 100_000)
	e, _, err := openFilled(img, rep, -1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Continue(); err != nil {
		t.Fatal(err)
	}
	grid, gridBytes := e.Checkpoints()
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < pairs; i++ {
		pos := 1 + rng.Uint64()%e.Window()
		if err := e.SeekTo(pos); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ReverseStep(1); err != nil || e.Pos() != pos-1 {
			t.Fatalf("pair %d: reverse step from %d landed on %d: %v", i, pos, e.Pos(), err)
		}
		mustKeepGrid(t, e, fmt.Sprintf("pair %d", i))
		count, bytes := e.Checkpoints()
		var near int64
		if e.store.near != nil {
			near = e.store.near.fixed + e.store.near.added.Bytes()
		}
		if count > grid+1 || bytes > gridBytes+near {
			t.Fatalf("pair %d: %d checkpoints charged %d bytes; the forward pass left %d charged %d, the near one is charged %d",
				i, count, bytes, grid, gridBytes, near)
		}
	}
}
