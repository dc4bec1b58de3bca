package bugnet_test

import (
	"fmt"
	"log"

	"bugnet"
)

// Example demonstrates the full record-and-replay cycle: a program crashes
// on a corrupted pointer, and replaying its First-Load Logs reproduces the
// exact faulting instruction with the state just before the crash. The
// report is then packed into the archive a recorder uploads.
func Example() {
	img, err := bugnet.Assemble("demo.s", `
        .data
ptr:    .word 0              # never initialized: the bug
        .text
main:   li   t0, 100
work:   addi t0, t0, -1      # ... unrelated work ...
        bnez t0, work
        la   t1, ptr
        lw   t2, (t1)        # loads the null pointer
boom:   lw   a0, (t2)        # crash
`)
	if err != nil {
		log.Fatal(err)
	}

	// A verification trace lets VerifyReplay check the replay against the
	// recorded run instruction for instruction.
	res, report, rec := bugnet.Record(img, bugnet.MachineConfig{}, bugnet.Config{TraceDepth: 1 << 10})
	fmt.Println("crashed:", res.Crash != nil)

	rr, err := bugnet.NewReplayer(img, report.FLLs[res.Crash.TID]).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replayed instructions:", rr.Instructions)
	fmt.Println("faulting instruction:", bugnet.Disassemble(img, rr.Fault.PC))
	fmt.Printf("bad pointer in t2: %#x\n", rr.Final.Regs[7])
	fmt.Println("replay verified:", bugnet.VerifyReplay(img, rec) == nil)

	blob, err := bugnet.PackReport(report) // one uploadable archive
	if err != nil {
		log.Fatal(err)
	}
	id := bugnet.ReportID(blob) // its content address, hex SHA-256
	fmt.Println("report id length:", len(id))
	// Output:
	// crashed: true
	// replayed instructions: 204
	// faulting instruction: lw a0, 0(t2)
	// bad pointer in t2: 0x0
	// replay verified: true
	// report id length: 64
}

// ExampleRecord_externalInput shows the paper's central claim: values that
// enter through the operating system (here a read syscall) are reproduced
// during replay purely from the logs — no input is given to the replayer.
func ExampleRecord_externalInput() {
	img, _ := bugnet.Assemble("input.s", `
        .data
buf:    .space 4
        .text
main:   li   a0, 0
        la   a1, buf
        li   a2, 4
        li   a7, 3           # read(stdin, buf, 4)
        syscall
        la   t0, buf
        lw   s0, (t0)        # the OS-written word
        li   a7, 1
        syscall
`)
	_, report, _ := bugnet.Record(img,
		bugnet.MachineConfig{Inputs: map[string][]byte{"stdin": []byte("ABCD")}},
		bugnet.Config{})

	rr, _ := bugnet.NewReplayer(img, report.FLLs[0]).Run()
	fmt.Printf("replayed s0 = %#x\n", rr.Final.Regs[8]) // "ABCD" little-endian
	// Output:
	// replayed s0 = 0x44434241
}

// ExampleIdentifyBinary shows the version-skew check: replaying against a
// different build of the program is rejected up front.
func ExampleIdentifyBinary() {
	v1, _ := bugnet.Assemble("v1.s", "main: li a0, 1\nli a7, 1\nsyscall\n")
	v2, _ := bugnet.Assemble("v2.s", "main: li a0, 2\nli a7, 1\nsyscall\n")

	_, report, _ := bugnet.Record(v1, bugnet.MachineConfig{}, bugnet.Config{})
	fmt.Println("same build: ", report.Binary.Matches(v1) == nil)
	fmt.Println("other build:", report.Binary.Matches(v2) == nil)
	// Output:
	// same build:  true
	// other build: false
}

// ExampleNewMultiReplayer replays every thread of a two-thread recording
// in the order the Memory Race Logs reconstruct (paper §5.2) and lets the
// race detector point at the racy instructions: one thread increments a
// shared counter with a plain load/store pair, the other atomically.
func ExampleNewMultiReplayer() {
	img, err := bugnet.Assemble("race.s", `
        .data
counter: .word 0
done:    .word 0
         .text
main:    la   a0, worker
         li   a7, 8          # spawn
         syscall
         li   s2, 200
mloop:   la   t0, counter
         lw   t1, (t0)       # racy read-modify-write
         addi t1, t1, 1
         sw   t1, (t0)
         addi s2, s2, -1
         bnez s2, mloop
         la   t0, done
mwait:   amoadd t1, zero, (t0)
         beqz t1, mwait
         la   t0, counter
         lw   a0, (t0)
         li   a7, 1          # exit(counter)
         syscall

worker:  li   s2, 200
wloop:   la   t0, counter
         li   t1, 1
         amoadd t2, t1, (t0) # atomic increment
         addi s2, s2, -1
         bnez s2, wloop
         la   t0, done
         li   t1, 1
         amoswap t2, t1, (t0)
         li   a0, 0
         li   a7, 1
         syscall
`)
	if err != nil {
		log.Fatal(err)
	}
	res, report, _ := bugnet.Record(img, bugnet.MachineConfig{Cores: 2}, bugnet.Config{IntervalLength: 5000})
	fmt.Println("counter after 400 increments:", res.ExitCode) // lost updates

	mr := bugnet.NewMultiReplayer(img, report)
	mr.DetectRaces = true
	out, err := mr.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threads replayed:", len(out.Threads))
	for _, r := range out.Races {
		fmt.Printf("T%d %s  vs  T%d %s\n", r.TID1, bugnet.Disassemble(img, r.PC1),
			r.TID2, bugnet.Disassemble(img, r.PC2))
	}
	// Output:
	// counter after 400 increments: 342
	// threads replayed: 2
	// T0 lw t1, 0(t0)  vs  T1 amoadd t2, t1, (t0)
	// T0 sw t1, 0(t0)  vs  T1 amoadd t2, t1, (t0)
}

// ExampleNewDebugger drives the replay debugger over the tar analogue's
// recorded crash: a wrong loop bound overflows a heap array into the
// descriptor next to it, whose pointer is later dereferenced. Breaking at
// the root-cause store counts its executions; seeking back to the start
// and stopping before the 34th store shows the descriptor's base pointer
// being overwritten.
func ExampleNewDebugger() {
	var tar *bugnet.BugApp
	for _, b := range bugnet.BugWorkloads(100) {
		if b.Name == "tar" {
			tar = b
		}
	}
	res, report, _ := bugnet.Record(tar.Image, tar.Kernel, bugnet.Config{IntervalLength: 10_000})
	d, err := bugnet.NewDebugger(tar.Image, report, res.Crash.TID)
	if err != nil {
		log.Fatal(err)
	}

	d.AddBreak(tar.RootPC())
	hits := 0
	for {
		reason, err := d.Continue()
		if err != nil {
			log.Fatal(err)
		}
		if reason != bugnet.StopBreak {
			break
		}
		hits++
	}
	fmt.Println("root-cause store executed:", hits, "times") // the bound is 40, not 32
	fmt.Printf("crash at %s: %s\n", d.SymbolAt(d.Fault().PC), d.Disasm(d.Fault().PC))

	if err := d.SeekTo(0); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 34; i++ {
		if _, err := d.Continue(); err != nil {
			log.Fatal(err)
		}
	}
	target := d.Registers().Regs[6] &^ 3 // t1 holds the store's target
	before, _ := d.ReadWord(target)
	d.Step(1)
	after, _ := d.ReadWord(target)
	fmt.Printf("descriptor.base at %#x: %#x before the 34th store, %#x after\n", target, before, after)
	// Output:
	// root-cause store executed: 40 times
	// crash at crash: lw a0, 0(t2)
	// descriptor.base at 0x10001084: 0x10001000 before the 34th store, 0x21 after
}
