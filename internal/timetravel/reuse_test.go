package timetravel

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestReverseStepReusesPages: on an mcf window, a reverse step after a
// seek — the pair BenchmarkReverseStep times — copies pages into the
// storage its previous restore handed back instead of allocating them.
// Before restores rewound in place, the step allocated about 374 KB on the
// 400 K-instruction window and 148 KB on the 2.1 M one, nearly all of it
// 4 KB page copies. Now that the step restores the near checkpoint its
// seek left δ short of the target, copies the cursor state into the
// machine's own and keeps the decoded blocks, it allocates under 1 KB on
// either window (about 2 KB while every restore cloned the cursor state
// and re-decoded the blocks after a block-cache flush).
//
// The seek pays instead. The near checkpoint it plants pins the pages its
// re-execution copied since the grid checkpoint it restored, which the next
// restore would otherwise have handed back for reuse, so the next seek
// copies into new ones: a pair allocates about 320 KB on the 400 K window
// and 115 KB on the 2.1 M one (20 KB and 43 KB without the near
// checkpoint). Handing a dropped checkpoint's pages back needs pages that
// count their sharers. Seeks that no reverse step follows plant nothing
// after the first, so once the machine's free pages have refilled (the
// first run of them, untimed) they allocate what a seek did before the
// near checkpoint: 12–14 KB, under 32 KB, where planting on each of them
// allocated 186–360 KB.
func TestReverseStepReusesPages(t *testing.T) {
	for _, w := range []struct {
		steps     uint64
		pairLimit uint64 // bytes a seek and reverse step may allocate
	}{{400_000, 448 << 10}, {2_100_000, 192 << 10}} {
		if testing.Short() && w.steps > 400_000 {
			continue
		}
		n := w.steps
		rep, img := specWindow(t, "mcf", n, 100_000)
		e, _, err := openFilled(img, rep, -1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Continue(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		var stepped, paired uint64
		pair := func() {
			pos := 1 + rng.Uint64()%e.Window()
			var start, before, after runtime.MemStats
			runtime.ReadMemStats(&start)
			if err := e.SeekTo(pos); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			_, err := e.ReverseStep(1)
			runtime.ReadMemStats(&after)
			if err != nil || e.Pos() != pos-1 {
				t.Fatalf("reverse step from %d landed on %d: %v", pos, e.Pos(), err)
			}
			stepped += after.TotalAlloc - before.TotalAlloc
			paired += after.TotalAlloc - start.TotalAlloc
		}
		for i := 0; i < 8; i++ {
			pair()
		}
		const pairs = 64
		stepped, paired = 0, 0
		for i := 0; i < pairs; i++ {
			pair()
		}
		if per := stepped / pairs; per >= 32<<10 {
			t.Errorf("%d-instruction window: a reverse step allocates %d KB; want under 32 KB", n, per>>10)
		}
		if per := paired / pairs; per >= w.pairLimit {
			t.Errorf("%d-instruction window: a seek and reverse step allocate %d KB; want under %d KB", n, per>>10, w.pairLimit>>10)
		}
		var sought uint64 // over the second of two runs of seeks
		for i := 0; i < 2*pairs; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.SeekTo(rng.Uint64() % (e.Window() + 1)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i >= pairs {
				sought += after.TotalAlloc - before.TotalAlloc
			}
		}
		if per := sought / pairs; per >= 32<<10 {
			t.Errorf("%d-instruction window: a seek no reverse step follows allocates %d KB; want under 32 KB", n, per>>10)
		}
		t.Logf("%d-instruction window: %d KB a reverse step, %d KB with its seek, %d KB a seek alone",
			n, stepped/pairs>>10, paired/pairs>>10, sought/pairs>>10)
	}
}
