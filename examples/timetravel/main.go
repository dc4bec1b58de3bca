// Timetravel: drive the replay debugger over a recorded crash — the
// workflow the paper's introduction promises the developer. We break at
// the bug's root cause, count its executions, inspect the corruption as
// it happens, and travel backwards by deterministic re-execution.
package main

import (
	"fmt"
	"log"

	"bugnet"
	"bugnet/internal/workload"
)

func main() {
	// Record the tar analogue: a wrong loop bound overflows a heap array
	// into an adjacent descriptor whose pointer is later dereferenced.
	bug := workload.BugByName("tar", 100)
	kcfg := bug.Kernel
	kcfg.MaxSteps = 10_000_000
	res, report, _ := bugnet.Record(bug.Image, kcfg, bugnet.Config{IntervalLength: 10_000})
	if res.Crash == nil {
		log.Fatal("expected a crash")
	}
	fmt.Printf("crash recorded: %v\n\n", res.Crash.Fault)

	d, err := bugnet.NewDebugger(bug.Image, report, res.Crash.TID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay window: %d instructions\n", d.Window())

	// Break at the root-cause store and count its executions.
	root := bug.Image.MustSymbol("root")
	d.AddBreak(root)
	hits := 0
	for !d.Done() {
		reason, err := d.Continue()
		if err != nil {
			log.Fatal(err)
		}
		if reason != bugnet.StopBreak {
			break
		}
		hits++
	}
	fmt.Printf("root-cause store executed %d times (the loop bound is 40, not 32!)\n", hits)
	fmt.Printf("stopped at end: [%d/%d]\n", d.Pos(), d.Window())
	fmt.Printf("crash pc: %s (%s)\n\n", d.SymbolAt(d.Fault().PC), d.Disasm(d.Fault().PC))

	// Time travel: go back and stop right before the 34th store — the one
	// that turns the descriptor's base pointer into a small integer.
	if err := d.SeekTo(0); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 34; i++ {
		if _, err := d.Continue(); err != nil {
			log.Fatal(err)
		}
	}
	target := d.Registers().Regs[6] &^ 3 // t1 holds the store target here
	before, knownB := d.ReadWord(target)
	d.Step(1)
	after, knownA := d.ReadWord(target)
	fmt.Printf("watching the 34th store at %#x (descriptor.base):\n", target)
	fmt.Printf("  before: %#x (known=%v)  <- a real heap pointer\n", before, knownB)
	fmt.Printf("  after:  %#x (known=%v)  <- now the integer 33: the corruption\n", after, knownA)
	fmt.Println("\ngoing back in time is just deterministic re-execution (paper §5);")
	fmt.Println("every visit to a position reproduces the identical state.")
}
