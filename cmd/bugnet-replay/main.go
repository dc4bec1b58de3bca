// Command bugnet-replay deterministically replays a crash report archive
// against the same binary, reproducing the exact execution that led to
// the crash (paper §5). A report recorded from a different binary is
// refused before replay starts.
//
// Usage:
//
//	bugnet-replay -archive report.bnar -bug gzip
//	bugnet-replay -archive report.bnar -asm prog.s [-races]
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"bugnet"
	"bugnet/internal/cli"
	"bugnet/internal/parreplay"
	"bugnet/internal/report"
)

func main() {
	archive := flag.String("archive", "bugnet-report.bnar", "crash report archive file")
	bug := flag.String("bug", "", "the Table 1 analogue the report was recorded from")
	spec := flag.String("spec", "", "the SPEC analogue the report was recorded from")
	asmFile := flag.String("asm", "", "the assembly source the report was recorded from")
	scale := flag.Int("scale", 100, "bug-window scale used when recording")
	races := flag.Bool("races", false, "run multithreaded replay with data-race inference")
	flag.Parse()

	img, _, err := cli.Pick(cli.Selection{Bug: *bug, Spec: *spec, Asm: *asmFile, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	a, err := report.OpenFile(*archive)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loading report:", err)
		os.Exit(1)
	}
	defer a.Close()
	rep := a.Report()

	// Replay adopts the recording options the report carries and refuses
	// a report from a different binary before it starts; the report alone
	// picks the schedule (see parreplay.ReplayReport).
	out, err := parreplay.ReplayReport(img, rep, parreplay.ReportOptions{DetectRaces: *races})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	for _, tid := range slices.Sorted(maps.Keys(out.Threads)) {
		describe(img, tid, out.Threads[tid])
	}
	if *races || len(rep.FLLs) > 1 {
		fmt.Printf("applied %d ordering constraints (%d dropped outside the window)\n",
			out.Constraints, out.DroppedConstraints)
		for _, r := range out.Races {
			fmt.Println(r)
		}
		if *races && len(out.Races) == 0 {
			fmt.Println("no data races inferred")
		}
	}
}

func describe(img *bugnet.Image, tid int, rr *bugnet.ReplayResult) {
	fmt.Printf("thread %d: replayed %d instructions over %d checkpoint intervals (%d first-load injections)\n",
		tid, rr.Instructions, rr.Intervals, rr.Injected)
	if rr.Fault != nil {
		fmt.Printf("  crash at pc=%#x: %s\n", rr.Fault.PC, bugnet.Disassemble(img, rr.Fault.PC))
		fmt.Printf("  state before the crash: pc=%#x\n", rr.Final.PC)
	}
}
