package core

// encoder_test.go holds the recorder's two stages to the inline encode they
// replace, and the encoder goroutine to its lifetime: it exists only while
// Machine.Run executes.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/cpu/cputest"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/workload"
)

// goroutinesBack waits until the goroutine count is back to base. The
// encoder's last act wakes the guest, so its goroutine is freed a moment
// after Run returns; a leaked one never is.
func goroutinesBack(t *testing.T, base int, after string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// twoProcessors reports whether a recording may start an encoder
// goroutine (claimProcessors), none running elsewhere.
func twoProcessors() bool { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) >= 2 }

// runProbe wraps a recorder as the machine's hooks and notes, at every
// timer interrupt, whether the encoder goroutine is running; with panics
// set, the first interrupt that finds it running panics.
type runProbe struct {
	*Recorder
	sawEncoder, panics bool
}

func (p *runProbe) OnInterrupt(tid int, kind kernel.InterruptKind) {
	p.sawEncoder = p.sawEncoder || p.stream.running
	if p.panics && p.stream.running {
		panic("hook failed")
	}
	p.Recorder.OnInterrupt(tid, kind)
}

// runRecovered runs m and returns what a panic out of Run carried, or nil.
func runRecovered(m *kernel.Machine) (p any) {
	defer func() { p = recover() }()
	m.Run()
	return nil
}

// lifetimeSweep loads its way through 16 KB without end. Set before main
// runs, s4 spawns a second sweeper beside it, s5 ends the program after
// twelve sweeps, and s6 makes that end a crash instead of an exit.
const lifetimeSweep = `
        .data
arr:    .space 16384
        .text
main:   li   s3, 12
        la   a0, worker
        li   a1, 0
        beqz s4, solo
        li   a7, 8          # spawn a sweeper
        syscall
solo:   call sweep
        beqz s5, again
        li   a0, 0
        bnez s6, crash
        li   a7, 1          # exit
        syscall
crash:  lui  t0, 0x7f00
        lw   a0, 0(t0)
again:  j    solo

worker: call sweep
        j    worker

sweep:  la   t0, arr
        li   t2, 4096
sw1:    lw   t1, (t0)
        addi t1, t1, 1
        sw   t1, (t0)
        addi t0, t0, 4
        addi t2, t2, -1
        bnez t2, sw1
        addi s3, s3, -1
        bgtz s3, sweep
        ret
`

func TestEncoderLivesOnlyInsideRun(t *testing.T) {
	flags := func(regs ...string) string {
		var b bytes.Buffer
		for _, r := range regs {
			fmt.Fprintf(&b, "        li   %s, 1\n", r)
		}
		return b.String()
	}
	cases := []struct {
		name  string
		set   string
		cores int
		steps uint64
		crash bool
	}{
		{name: "step budget", steps: 300_000},
		{name: "exit", set: flags("s5")},
		{name: "crash", set: flags("s5", "s6"), crash: true},
		{name: "two-thread crash", set: flags("s4", "s5", "s6"), cores: 2, crash: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			src := strings.Replace(lifetimeSweep, "main:   li   s3, 12\n", "main:\n"+tc.set+"        li   s3, 12\n", 1)
			img := asm.MustAssemble("lifetime.s", src)
			m := kernel.New(img, kernel.Config{Cores: tc.cores, MaxSteps: tc.steps, TimerInterval: 5_000}, nil)
			rec := NewRecorder(m, Config{IntervalLength: 20_000, Cache: tinyCache()})
			probe := &runProbe{Recorder: rec}
			m.SetHooks(probe)
			res := m.Run()
			if (res.Crash != nil) != tc.crash {
				t.Fatalf("crash = %v, want crash %v", res.Crash, tc.crash)
			}
			if twoProcessors() && !probe.sawEncoder {
				t.Fatal("the encoder never ran; the test proves nothing")
			}
			goroutinesBack(t, base, "Run")
			rec.Flush()
			rec.Flush()
			goroutinesBack(t, base, "two Flushes")
			rep := rec.Report()
			if len(rep.FLLs[0]) == 0 || rec.Err() != nil {
				t.Fatalf("report holds %d FLLs of thread 0, err %v", len(rep.FLLs[0]), rec.Err())
			}
			if tc.cores < 2 {
				if _, err := NewReplayer(img, rep.FLLs[0]).Run(); err != nil {
					t.Fatalf("replay: %v", err)
				}
			}
		})
	}
	// A panic unwinding Run — from a guest-side hook, or from the log
	// stage on the encoder goroutine — reaches Run's caller, and the
	// encoder is gone once it has.
	t.Run("hook panics", func(t *testing.T) {
		if !twoProcessors() {
			t.Skip("no encoder goroutine with one processor")
		}
		base := runtime.NumGoroutine()
		img := asm.MustAssemble("lifetime.s", lifetimeSweep)
		m := kernel.New(img, kernel.Config{MaxSteps: 300_000, TimerInterval: 5_000}, nil)
		probe := &runProbe{Recorder: NewRecorder(m, Config{IntervalLength: 20_000, Cache: tinyCache()}), panics: true}
		m.SetHooks(probe)
		if p := runRecovered(m); p != "hook failed" {
			t.Fatalf("Run's caller recovered %v, want the hook's panic", p)
		}
		goroutinesBack(t, base, "a panicking hook")
		probe.Flush()
		if rep := probe.Report(); len(rep.FLLs[0]) == 0 || probe.Err() != nil {
			t.Fatalf("report holds %d FLLs, err %v", len(rep.FLLs[0]), probe.Err())
		}
	})
	t.Run("log stage panics", func(t *testing.T) {
		base := runtime.NumGoroutine()
		img := asm.MustAssemble("lifetime.s", lifetimeSweep)
		m := kernel.New(img, kernel.Config{MaxSteps: 300_000}, nil)
		rec := NewRecorder(m, Config{IntervalLength: 20_000, Cache: tinyCache()})
		rec.flls = nil // the log stage's first FLL commit dereferences it
		if p := runRecovered(m); p == nil {
			t.Fatal("Run returned normally; want the log stage's panic")
		}
		if twoProcessors() && rec.stream.panicked == nil {
			t.Fatal("the panic was not the encoder goroutine's")
		}
		goroutinesBack(t, base, "a panicking log stage")
		defer func() {
			if recover() == nil {
				t.Error("Flush after a failed log stage returned normally")
			}
		}()
		rec.Flush()
	})
	t.Run("no Run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		img := asm.MustAssemble("lifetime.s", lifetimeSweep)
		rec := NewRecorder(kernel.New(img, kernel.Config{}, nil), Config{})
		if rep := rec.Report(); len(rep.FLLs) != 0 {
			t.Fatalf("a recorder that never ran reports %d threads", len(rep.FLLs))
		}
		// Attached to a started machine, the recorder opens intervals
		// at once; Report encodes them on the caller's goroutine.
		m := kernel.New(img, kernel.Config{MaxSteps: 1_000}, nil)
		m.Run()
		rec = NewRecorder(m, Config{})
		rec.Flush()
		if got := rec.FLLStore().Stats().TotalCount; got != 1 {
			t.Fatalf("flushed %d intervals, want the one the attach opened", got)
		}
		goroutinesBack(t, base, "NewRecorder and Report")
	})
}

// Fuzz programs: the pinned gzip recordings, the shared-memory workload,
// a cputest program built from the fuzz bytes, or a named one.
const (
	progGzip = iota
	progMTShare
	progWords
	progTwin
	numProgs
)

// stagesRun is one recording under test: its machine and recorder.
type stagesRun struct {
	m   *kernel.Machine
	rec *Recorder
}

// FuzzRecorderStagesVsInline: a recorder whose log stage runs on the
// encoder goroutine and one that encodes every event as it is written
// must leave the same bytes in the same stores, with the same counters,
// after every Run return and after Flush — whatever the program, interval
// length, dictionary size, first-load bit policy, code-load logging,
// timer, cache size, region budget and backing, and however the run is
// cut into Runs. flags: 1 timer interrupts, 2 PreserveFLBits, 4
// LogCodeLoads, 8 small budgets, 16 disk regions, 32 a tiny cache, and
// the top two bits one to four Runs. The first three seeds are the
// recordings wirepin_test.go pins.
func FuzzRecorderStagesVsInline(f *testing.F) {
	f.Add(uint8(progGzip), uint32(50_000), uint32(10_000), uint8(5), uint8(0), []byte(nil))
	f.Add(uint8(progGzip), uint32(450_000), uint32(10_000), uint8(5), uint8(0), []byte(nil))
	f.Add(uint8(progMTShare), uint32(100_000), uint32(5_000), uint8(5), uint8(0), []byte(nil))
	// Two threads on small disk regions over four Runs: the MRL region
	// rotates segments and evicts on the log stage across every Run
	// boundary.
	f.Add(uint8(progMTShare), uint32(200_000), uint32(5_000), uint8(5), uint8(3<<6|16|8), []byte(nil))
	for i, seed := range cputest.FuzzSeeds() {
		f.Add(uint8(progWords), uint32(3_000), uint32(97), uint8(i), uint8(i*37), seed)
	}
	names := slices.Sorted(maps.Keys(cputest.TwinPrograms))
	for i, name := range names {
		f.Add(uint8(progTwin), uint32(5_000), uint32(13+i), uint8(i), uint8(i*53), []byte(name))
	}
	f.Fuzz(func(t *testing.T, prog uint8, steps, interval uint32, dictLog, flags uint8, data []byte) {
		var img *asm.Image
		kcfg := kernel.Config{MaxSteps: max(1, uint64(steps)%500_001)}
		switch prog % numProgs {
		case progGzip:
			img = workload.ByName("gzip").Image
		case progMTShare:
			mt := workload.MTShare()
			img, kcfg.Cores = mt.Image, mt.Kernel.Cores
		case progWords:
			img = cputest.FuzzImage(cputest.FuzzWords(data))
		case progTwin:
			name := names[crc32.ChecksumIEEE(data)%uint32(len(names))]
			img = asm.MustAssemble(name+".s", cputest.TwinPrograms[name])
		}
		if flags&1 != 0 {
			kcfg.TimerInterval = 500 + uint64(interval)%3_000
		}
		runs := 1 + int(flags>>6)
		cfg := Config{
			IntervalLength: max(1, uint64(interval)%(1<<20)),
			DictSize:       1 << (1 + dictLog%8),
			PreserveFLBits: flags&2 != 0,
			LogCodeLoads:   flags&4 != 0,
		}
		if flags&32 != 0 {
			cfg.Cache = tinyCache()
		}
		if flags&8 != 0 {
			cfg.FLLBudget, cfg.MRLBudget = 8<<10, 2<<10
		}
		newRun := func(inline bool) stagesRun {
			c := cfg
			if flags&16 != 0 {
				dir := t.TempDir()
				c.FLLStore = openDiskStore(t, filepath.Join(dir, "fll"), cfg.FLLBudget)
				c.MRLStore = openDiskStore(t, filepath.Join(dir, "mrl"), cfg.MRLBudget)
			}
			m := kernel.New(img, kcfg, nil)
			rec := NewRecorder(m, c)
			rec.inline = inline
			return stagesRun{m, rec}
		}
		staged, inline := newRun(false), newRun(true)
		for i := 1; i <= runs; i++ {
			limit := kcfg.MaxSteps * uint64(i) / uint64(runs)
			for _, r := range []stagesRun{staged, inline} {
				r.m.SetMaxSteps(limit)
				r.m.Run()
			}
			if err := sameRecording(staged.rec, inline.rec); err != nil {
				t.Fatalf("after Run %d of %d: %v", i, runs, err)
			}
		}
		staged.rec.Flush()
		inline.rec.Flush()
		if err := sameRecording(staged.rec, inline.rec); err != nil {
			t.Fatalf("after Flush: %v", err)
		}
	})
}

func openDiskStore(t *testing.T, dir string, budget int64) *logstore.Store {
	d, err := logstore.OpenDisk(dir, logstore.DiskOptions{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := logstore.Open(budget, d)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameRecording compares what two recorders of the same execution hold.
func sameRecording(a, b *Recorder) error {
	for _, st := range []struct {
		name string
		a, b *logstore.Store
	}{{"FLL", a.FLLStore(), b.FLLStore()}, {"MRL", a.MRLStore(), b.MRLStore()}} {
		if sa, sb := st.a.Stats(), st.b.Stats(); sa != sb {
			return fmt.Errorf("%s stats %+v, inline %+v", st.name, sa, sb)
		}
		ia, ib := st.a.All(), st.b.All()
		if !reflect.DeepEqual(ia, ib) {
			return fmt.Errorf("%s items %+v, inline %+v", st.name, ia, ib)
		}
		for _, it := range ia {
			da, erra := st.a.Loader(it.Seq)()
			db, errb := st.b.Loader(it.Seq)()
			if erra != nil || errb != nil || !bytes.Equal(da, db) {
				return fmt.Errorf("%s T%d C%d: %d bytes (err %v), inline %d bytes (err %v)", st.name, it.TID, it.CID, len(da), erra, len(db), errb)
			}
		}
	}
	la, ta := a.LoggedOps()
	lb, tb := b.LoggedOps()
	if la != lb || ta != tb {
		return fmt.Errorf("logged ops %d of %d, inline %d of %d", la, ta, lb, tb)
	}
	for tid := range a.threads {
		if ca, cb := a.CacheStats(tid), b.CacheStats(tid); ca != cb {
			return fmt.Errorf("T%d cache stats %+v, inline %+v", tid, ca, cb)
		}
		if da, db := a.DictStats(tid), b.DictStats(tid); da != db {
			return fmt.Errorf("T%d dict stats %+v, inline %+v", tid, da, db)
		}
	}
	if ea, eb := a.Err(), b.Err(); fmt.Sprint(ea) != fmt.Sprint(eb) {
		return fmt.Errorf("err %v, inline %v", ea, eb)
	}
	return nil
}

// TestClaimProcessors: recordings with an encoder each take two
// processors, and no more start than GOMAXPROCS (and the CPUs) have room
// for; the rest encode inline.
func TestClaimProcessors(t *testing.T) {
	procs := int32(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	var n int32
	for claimProcessors() {
		n++
	}
	encoders.Add(-n)
	if n != procs/2 {
		t.Fatalf("%d encoders started on %d processors, want %d", n, procs, procs/2)
	}
}
