package timetravel

import (
	"fmt"
	"math/rand"
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
	for _, c := range e.ckpts {
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
	e, _, err := NewEngineForThread(img, rep, -1, Config{CheckpointEvery: 500, CheckpointBudget: budget})
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
// the occupancy must cover every byte the checkpoints reference.
func TestAccountingNeverUndercharges(t *testing.T) {
	rep, img := recordCrash(t, pageStormProgram, 3_000)
	for _, b := range accountingBudgets {
		t.Run(b.name, func(t *testing.T) {
			e := accountingEngine(t, rep, img, b.bytes)
			rng := rand.New(rand.NewSource(b.bytes))
			e.AddBreak(img.MustSymbol("main"))
			window := e.Window()
			ops := 120
			if testing.Short() {
				ops = 40
			}
			for i := 0; i < ops; i++ {
				var err error
				var op string
				switch k := rng.Intn(10); {
				case k < 2:
					op = "continue"
					_, err = e.Continue()
				case k < 6:
					op = "seek"
					err = e.SeekTo(uint64(rng.Int63n(int64(window) + 1)))
				case k < 9:
					op = "rstep"
					_, err = e.ReverseStep(1 + uint64(rng.Intn(3000)))
				default:
					op = "rcont"
					_, err = e.ReverseContinue()
				}
				if err != nil {
					t.Fatalf("op %d %s: %v", i, op, err)
				}
				mustCover(t, e, fmt.Sprintf("op %d %s", i, op))
			}
		})
	}
}

// mustCover fails unless the occupancy covers what the checkpoints hold.
func mustCover(t *testing.T, e *Engine, when string) {
	t.Helper()
	count, charged := e.Checkpoints()
	if all, only := retained(e); charged < all || all < only {
		t.Fatalf("%s at pos %d: %d checkpoints charged %d bytes, reference %d (%d through checkpoints alone)",
			when, e.Pos(), count, charged, all, only)
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
		i := e.ckptIndexAtOrBefore(pos)
		if e.ckpts[i].pos != pos {
			t.Fatalf("no checkpoint at %d", pos)
		}
		e.drop(i)
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
