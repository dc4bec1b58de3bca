// Command bugnet-chaos soaks an in-process bugnet cluster under a
// seeded fault storm — kills, restarts, partitions, and disk faults —
// while uploading reports at a fixed rate, then heals everything and
// verifies the durability contract: every acked report is readable and
// replayable from the surviving cluster, replication debt converges to
// zero, the retry/breaker/fault instrumentation all left series behind,
// and no goroutines leak.
//
// The storm is a pure function of -seed, so a failing run reproduces
// exactly:
//
//	bugnet-chaos -seed 42 -nodes 3 -duration 60s -rps 25
//	bugnet-chaos -seed 42 -json storm-report.json   # CI artifact
//
// Exit status is 0 iff the run upholds the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bugnet/internal/loadgen"
)

func main() {
	seed := flag.Int64("seed", 1, "storm seed; the schedule and every fault draw derive from it")
	nodes := flag.Int("nodes", 3, "cluster size")
	duration := flag.Duration("duration", 60*time.Second, "storm length")
	rps := flag.Int("rps", 25, "upload rate during the storm")
	corpus := flag.Int("corpus", 32, "distinct reports the sender cycles through")
	tick := flag.Duration("tick", 500*time.Millisecond, "fault schedule granularity")
	jsonPath := flag.String("json", "", "also write the storm report as JSON to this path")
	dir := flag.String("dir", "", "node store directory (default: a fresh temp dir, removed on success)")
	quiet := flag.Bool("quiet", false, "suppress per-event progress lines")
	flag.Parse()

	base := *dir
	if base == "" {
		var err error
		if base, err = os.MkdirTemp("", "bugnet-chaos-*"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	fmt.Printf("chaos storm: seed %d (rerun with -seed %d to reproduce)\n", *seed, *seed)
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if *quiet {
		logf = nil
	}
	rep, err := loadgen.Storm(loadgen.StormOptions{
		Seed:     *seed,
		Nodes:    *nodes,
		Duration: *duration,
		RPS:      *rps,
		Corpus:   *corpus,
		Tick:     *tick,
		BaseDir:  base,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos harness failed:", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "writing storm report:", merr)
			os.Exit(2)
		}
	}

	fmt.Printf("storm: %d events over %d ticks; %d sent, %d acked, %d shed, %d errors\n",
		len(rep.Events), rep.Ticks, rep.Sent, rep.Acked, rep.Shed, rep.Errors)
	fmt.Printf("verify: %d lost, %d failed verdicts, repair debt %d, %d missing metrics, %d leaked goroutines\n",
		len(rep.LostReports), len(rep.FailedVerdicts), rep.RepairDebt,
		len(rep.MissingMetrics), rep.LeakedGoroutines)
	if !rep.OK {
		for _, id := range rep.LostReports {
			fmt.Printf("LOST: %s\n", id)
		}
		for _, id := range rep.FailedVerdicts {
			fmt.Printf("FAILED VERDICT: %s\n", id)
		}
		for _, fam := range rep.MissingMetrics {
			fmt.Printf("MISSING METRIC: %s\n", fam)
		}
		fmt.Printf("FAIL: durability contract violated (reproduce with -seed %d)\n", rep.Seed)
		os.Exit(1)
	}
	if *dir == "" {
		os.RemoveAll(base)
	}
	fmt.Println("OK: every acked report survived the storm")
}
