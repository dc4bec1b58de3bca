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
// 4 KB page copies; what remains is the per-restore cursor state, the
// blocks decoded after the block-cache flush, an interval loaded from the
// log store when the re-execution crosses into it, and the checkpoints it
// lays where eviction thinned them: about 8 KB and 14 KB on the two
// windows, with the interval's entry stream read where the load put it.
func TestReverseStepReusesPages(t *testing.T) {
	steps := []uint64{400_000}
	if !testing.Short() {
		steps = append(steps, 2_100_000)
	}
	for _, n := range steps {
		rep, img := specWindow(t, "mcf", n, 100_000)
		e, _, err := NewEngineForThread(img, rep, -1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Continue(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		var allocated uint64
		pair := func() {
			pos := 1 + rng.Uint64()%e.Window()
			if err := e.SeekTo(pos); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := e.ReverseStep(1)
			runtime.ReadMemStats(&after)
			if err != nil || e.Pos() != pos-1 {
				t.Fatalf("reverse step from %d landed on %d: %v", pos, e.Pos(), err)
			}
			allocated += after.TotalAlloc - before.TotalAlloc
		}
		for i := 0; i < 8; i++ {
			pair()
		}
		const pairs = 64
		allocated = 0
		for i := 0; i < pairs; i++ {
			pair()
		}
		if per := allocated / pairs; per >= 32<<10 {
			t.Errorf("%d-instruction window: a reverse step allocates %d KB; want under 32 KB", n, per>>10)
		}
		t.Logf("%d-instruction window: %d KB a reverse step", n, allocated/pairs>>10)
	}
}
