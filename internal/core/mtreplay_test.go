package core

import (
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/isa"
	"bugnet/internal/kernel"
)

// lockedCounterProgram: two threads increment a shared counter under a
// spinlock; properly synchronized, so no data race on the counter.
const lockedCounterProgram = `
        .data
lck:    .word 0
ctr:    .word 0
done:   .word 0
        .text
main:   la   a0, worker
        li   a7, 8          # spawn
        syscall
        call work           # main does its share too
        # wait for the worker (atomic flag read: proper discipline)
        la   t0, done
mwait:  amoadd t1, zero, (t0)
        li   t2, 1
        blt  t1, t2, mwait
        la   t0, ctr
        lw   a0, (t0)
        li   a7, 1
        syscall

worker: call work
        la   t0, done
        li   t1, 1
        amoadd t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall

# work: add 100 to ctr under the lock, 1 at a time
work:   li   s2, 100
wl:     la   t0, lck
        li   t1, 1
acq:    amoswap t2, t1, (t0)
        bnez t2, acq
        la   t3, ctr
        lw   t4, (t3)
        addi t4, t4, 1
        sw   t4, (t3)
        amoswap t5, zero, (t0)  # atomic release
        addi s2, s2, -1
        bnez s2, wl
        ret
`

// racyProgram: both threads do read-modify-write on a shared word with no
// synchronization — a textbook data race.
const racyProgram = `
        .data
shared: .word 0
done:   .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
        li   s2, 50
ml:     la   t0, shared
racy1:  lw   t1, (t0)       # racy read
        addi t1, t1, 1
racyw1: sw   t1, (t0)       # racy write
        addi s2, s2, -1
        bnez s2, ml
        la   t0, done
dwait:  amoadd t1, zero, (t0)
        beqz t1, dwait
        la   t0, shared
        lw   a0, (t0)
        li   a7, 1
        syscall

worker: li   s2, 50
wl2:    la   t0, shared
racy2:  lw   t1, (t0)
        addi t1, t1, 1
racyw2: sw   t1, (t0)
        addi s2, s2, -1
        bnez s2, wl2
        la   t0, done
        li   t1, 1
        amoswap t2, t1, (t0)
        li   a0, 0
        li   a7, 1
        syscall
`

func recordMT(t *testing.T, src string, cores int, rcfg Config) (*kernel.Result, *CrashReport, *Recorder, *asm.Image) {
	t.Helper()
	img, err := asm.Assemble("mt.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, rep, rec := Record(img, kernel.Config{Cores: cores}, rcfg)
	return res, rep, rec, img
}

func TestMTRecordProducesMRLs(t *testing.T) {
	res, rep, _, _ := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatalf("crash: %v", res.Crash)
	}
	if res.ExitCode != 200 {
		t.Fatalf("exit = %d; want 200 (locking broken?)", res.ExitCode)
	}
	if len(rep.FLLs) != 2 {
		t.Fatalf("threads with FLLs = %d", len(rep.FLLs))
	}
	entries := 0
	for _, logs := range rep.MRLs {
		for _, l := range logs {
			entries += int(l.NumEntries)
		}
	}
	if entries == 0 {
		t.Fatal("no MRL entries despite heavy sharing")
	}
}

func TestMTEachThreadReplaysIndependently(t *testing.T) {
	// Paper §4.6: "Any thread can be replayed independent of the other
	// threads". Replay each thread alone and check it completes.
	res, rep, _, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	for tid, logs := range rep.FLLs {
		r := NewReplayer(img, logs)
		rr, err := r.Run()
		if err != nil {
			t.Fatalf("thread %d replay: %v", tid, err)
		}
		if rr.Instructions == 0 {
			t.Errorf("thread %d replayed nothing", tid)
		}
	}
}

func TestMTVerifyReplayLockstep(t *testing.T) {
	_, _, rec, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 4096, Cache: tinyCache(), TraceDepth: 1 << 20})
	if err := VerifyReplay(img, rec); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestMTOrderReconstruction(t *testing.T) {
	res, rep, _, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	out, err := NewMultiReplayer(img, rep).Run()
	if err != nil {
		t.Fatalf("multi replay: %v", err)
	}
	if out.Constraints == 0 {
		t.Fatal("no ordering constraints derived")
	}
	var total uint64
	for _, tr := range out.Threads {
		total += tr.Instructions
	}
	if total != res.Instructions {
		t.Errorf("replayed %d instructions; recorded %d", total, res.Instructions)
	}
	// The final counter value must be reconstructible from thread 0's
	// replayed exit state.
	if out.Threads[0].Final.Regs[isa.RegA0] != 200 {
		t.Errorf("replayed final counter = %d; want 200", out.Threads[0].Final.Regs[isa.RegA0])
	}
}

func TestMTRaceDetectionFindsRace(t *testing.T) {
	res, rep, _, img := recordMT(t, racyProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	if res.Crash != nil {
		t.Fatal(res.Crash)
	}
	mr := NewMultiReplayer(img, rep)
	mr.DetectRaces = true
	out, err := mr.Run()
	if err != nil {
		t.Fatalf("multi replay: %v", err)
	}
	if len(out.Races) == 0 {
		t.Fatal("no races found in racy program")
	}
	// At least one race must involve the racy PCs on the shared word.
	racyPCs := map[uint32]bool{
		img.MustSymbol("racy1"): true, img.MustSymbol("racyw1"): true,
		img.MustSymbol("racy2"): true, img.MustSymbol("racyw2"): true,
	}
	foundShared := false
	pairs := make(map[[2]uint32]Race) // one static race per unordered PC pair
	for _, r := range out.Races {
		if racyPCs[r.PC1] && racyPCs[r.PC2] {
			foundShared = true
		}
		if r.TID1 == r.TID2 {
			t.Errorf("same-thread race reported: %v", r)
		}
		key := [2]uint32{min(r.PC1, r.PC2), max(r.PC1, r.PC2)}
		if first, dup := pairs[key]; dup {
			t.Errorf("race reported twice: %v, then %v", first, r)
		}
		pairs[key] = r
	}
	if !foundShared {
		t.Errorf("races found %v do not include the seeded racy accesses", out.Races)
	}
}

func TestMTNoFalseRacesUnderLocking(t *testing.T) {
	// The locked counter is properly synchronized through the AMO lock;
	// the critical-section accesses to ctr must NOT be reported as races.
	_, rep, _, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	mr := NewMultiReplayer(img, rep)
	mr.DetectRaces = true
	out, err := mr.Run()
	if err != nil {
		t.Fatalf("multi replay: %v", err)
	}
	// The program follows proper atomic discipline (atomic acquire AND
	// release on lck, atomic reads/writes of the done flag), so the
	// critical-section accesses to ctr are fully lock-ordered and no
	// access should be reported.
	for _, r := range out.Races {
		t.Errorf("unexpected race: %v", r)
	}
	_ = out
}

func TestMTNetzerAblation(t *testing.T) {
	// Disabling the reduction must increase (or equal) MRL entries while
	// leaving replayability intact.
	_, repOn, _, img := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache()})
	_, repOff, _, _ := recordMT(t, lockedCounterProgram, 2,
		Config{IntervalLength: 1 << 20, Cache: tinyCache(), DisableNetzer: true})
	count := func(rep *CrashReport) int {
		n := 0
		for _, logs := range rep.MRLs {
			for _, l := range logs {
				n += int(l.NumEntries)
			}
		}
		return n
	}
	on, off := count(repOn), count(repOff)
	if on >= off {
		t.Errorf("Netzer reduction ineffective: %d entries with, %d without", on, off)
	}
	mr := NewMultiReplayer(img, repOff)
	if _, err := mr.Run(); err != nil {
		t.Fatalf("replay without reduction: %v", err)
	}
}

func TestMTCrashInWorkerThread(t *testing.T) {
	src := `
        .data
shared: .word 0
        .text
main:   la   a0, worker
        li   a7, 8
        syscall
mspin:  j    mspin          # main spins forever; worker crashes
worker: li   t0, 100
wloop:  addi t0, t0, -1
        bnez t0, wloop
boom:   lw   a0, (zero)
`
	res, rep, _, img := recordMT(t, src, 2, Config{Cache: tinyCache()})
	if res.Crash == nil || res.Crash.TID != 1 {
		t.Fatalf("crash = %+v; want in thread 1", res.Crash)
	}
	logs := rep.FLLs[1]
	last := logs[len(logs)-1]
	if last.Fault == nil || last.Fault.PC != img.MustSymbol("boom") {
		t.Fatalf("fault footer = %+v", last.Fault)
	}
	// Replay the crashed worker alone.
	r := NewReplayer(img, logs)
	rr, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Fault == nil || rr.Fault.PC != img.MustSymbol("boom") {
		t.Errorf("replayed fault = %+v", rr.Fault)
	}
}
