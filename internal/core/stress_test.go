package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bugnet/internal/asm"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
)

// randomMTProgram generates a 2-thread program mixing private streaming,
// locked shared updates, unsynchronized shared traffic (benign for
// determinism — first-load logging must absorb it), and syscalls. It
// always terminates: both threads run a bounded number of rounds.
func randomMTProgram(rng *rand.Rand) string {
	var b strings.Builder
	w := func(s string) { b.WriteString(s); b.WriteByte('\n') }
	rounds := 10 + rng.Intn(40)
	w("        .data")
	w("lck:    .word 0")
	w("shared: .space 512")
	w("priv0:  .space 1024")
	w("priv1:  .space 1024")
	w("fin:    .word 0")
	w("        .text")
	w("main:   la   a0, work")
	w("        li   a7, 8")
	w("        syscall             # spawn the second thread")
	w("        call work")
	// Wait for the worker to finish before exiting (atomic flag).
	w("mwait:  la   t0, fin")
	w("        amoadd t1, zero, (t0)")
	w("        beqz t1, mwait")
	w("        li   a7, 1")
	w("        syscall")
	w("work:   mv   s6, ra")
	w("        li   a7, 11")
	w("        syscall             # thread id")
	w("        la   s3, priv0")
	w("        beqz a0, pick")
	w("        la   s3, priv1")
	w("pick:   li   s4, " + itoa(rounds))
	w("wl:")
	n := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		off := rng.Intn(255) * 4
		switch rng.Intn(6) {
		case 0:
			w("        lw   t1, " + itoa(off) + "(s3)")
		case 1:
			w("        sw   t1, " + itoa(off) + "(s3)")
		case 2: // unsynchronized shared access: racy but replayable
			w("        la   t2, shared")
			w("        lw   t3, " + itoa(rng.Intn(127)*4) + "(t2)")
			w("        add  t1, t1, t3")
		case 3: // locked shared update
			w("        la   t2, lck")
			w("        li   t3, 1")
			w("a" + itoa(i) + "_" + itoa(off) + ":")
			w("        amoswap t4, t3, (t2)")
			w("        bnez t4, a" + itoa(i) + "_" + itoa(off))
			w("        la   t5, shared")
			w("        lw   t6, " + itoa(rng.Intn(127)*4) + "(t5)")
			w("        addi t6, t6, 1")
			w("        sw   t6, " + itoa(rng.Intn(127)*4) + "(t5)")
			w("        amoswap t4, zero, (t2)")
		case 4:
			w("        li   a7, 7")
			w("        syscall             # time: interval boundary")
			w("        add  t1, t1, a0")
		case 5:
			w("        sb   t1, " + itoa(rng.Intn(1020)) + "(s3)")
		}
	}
	w("        addi s4, s4, -1")
	w("        bnez s4, wl")
	w("        la   t0, fin")
	w("        li   t1, 1")
	w("        amoadd t2, t1, (t0)")
	w("        mv   ra, s6")
	w("        ret                 # thread 0 returns to main; thread 1 to the exit sentinel")
	return b.String()
}

// TestPropertyRandomMTProgramsReplayExactly is the multithreaded
// counterpart of the single-thread property test: every thread of a
// random 2-core program with shared-memory traffic must replay
// instruction-exactly from its own logs, and the multithreaded replayer
// must reconstruct a complete interleaving.
func TestPropertyRandomMTProgramsReplayExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomMTProgram(rng)
		img, err := asm.Assemble("mtrand.s", src)
		if err != nil {
			t.Logf("assemble: %v", err)
			return false
		}
		kcfg := kernel.Config{
			Cores:         2,
			Quantum:       1 + rng.Intn(40),
			TimerInterval: uint64(100 + rng.Intn(1000)),
			MaxSteps:      3_000_000,
		}
		rcfg := Config{
			IntervalLength: uint64(200 + rng.Intn(3000)),
			Cache:          tinyCache(),
			TraceDepth:     1 << 18,
			// Exercise the future-work extension's invalidation paths
			// (coherence + kernel writes) on half the runs.
			PreserveFLBits: rng.Intn(2) == 0,
			DisableNetzer:  rng.Intn(4) == 0,
		}
		res, rep, rec := Record(img, kcfg, rcfg)
		if res.Crash != nil {
			t.Logf("seed %d: unexpected crash: %v\n%s", seed, res.Crash, src)
			return false
		}
		if res.Steps >= kcfg.MaxSteps {
			t.Logf("seed %d: did not terminate", seed)
			return false
		}
		// Per-thread instruction-exact verification.
		if err := VerifyReplay(img, rec); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Full multithreaded reconstruction.
		mr := NewMultiReplayer(img, rep)
		out, err := mr.Run()
		if err != nil {
			t.Logf("seed %d: multi replay: %v", seed, err)
			return false
		}
		var total uint64
		for _, tr := range out.Threads {
			total += tr.Instructions
		}
		if total != res.Instructions {
			t.Logf("seed %d: replayed %d of %d instructions", seed, total, res.Instructions)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCorruptedLogsNeverSilentlyDiverge flips random bits in
// serialized FLLs; replay must either succeed identically (the flip hit
// padding) or fail loudly — never panic, hang, or quietly produce a
// different execution without consuming the log stream consistently.
func TestPropertyCorruptedLogsNeverSilentlyDiverge(t *testing.T) {
	img := asm.MustAssemble("fi.s", sumProgram)
	_, rep, _ := Record(img, kernel.Config{}, Config{IntervalLength: 200, Cache: tinyCache()})
	logs := rep.FLLs[0]
	baseline, err := NewReplayer(img, logs).Run()
	if err != nil {
		t.Fatal(err)
	}

	// Pre-serialize the pristine logs.
	blobs := make([][]byte, len(logs))
	for i, l := range logs {
		var err error
		if blobs[i], err = l.Encoded(); err != nil {
			t.Fatal(err)
		}
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Corrupt one random bit of one random log.
		victim := rng.Intn(len(blobs))
		blob := append([]byte(nil), blobs[victim]...)
		bit := rng.Intn(len(blob) * 8)
		blob[bit/8] ^= 1 << uint(bit%8)

		m, err := fll.ParseMeta(blob)
		if err != nil {
			return true // rejected at decode: loud failure, fine
		}
		corrupted := fll.NewLazyRef(m, int64(len(blob)), func() ([]byte, error) { return blob, nil })
		mutated := append([]*fll.Ref(nil), logs...)
		mutated[victim] = corrupted

		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: replay panicked: %v", seed, r)
			}
		}()
		rr, err := NewReplayer(img, mutated).Run()
		if err != nil {
			return true // loud divergence error, fine
		}
		// Replay "succeeded": it must have produced the exact baseline
		// (the flipped bit was dead padding or an unused header field).
		return rr.Instructions == baseline.Instructions &&
			rr.Final == baseline.Final
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
