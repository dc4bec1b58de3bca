// Command benchmark is the repository's benchmark: one command that runs
// the BugNet pipeline — record, replay/debug, fleet triage — on a named
// workload, prints every metric by name with its unit, and checks that
// the outputs are correct. README.md explains the metrics and workloads;
// BENCHMARK.json at the repository root is the machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "orders the fleet upload schedule and the seek positions")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time of one run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	aa := fs.Int("aa", 0, "run this many full sets back to back and judge the spread against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, *seed, *seconds)
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace == 1)
	}
	def := workloadByName(*name)
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	return runOne(def, *seed, *seconds, *trace == 1)
}

// outDir is where result and trace files go: benchmark/out when run from
// the repository root, out when run from the benchmark directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// detailFile names the detail file of one run.
func detailFile(workload string, traced bool) string {
	kind := "result-"
	if traced {
		kind = "layers-"
	}
	return filepath.Join(outDir(), kind+workload+".json")
}

// runResult is the detail file one run writes beside its stdout line.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Environment environment        `json:"environment"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]reading `json:"metrics"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	Notes       map[string]float64 `json:"notes,omitempty"`
}

// runOne measures one workload in this process and prints, last, the one
// JSON line the driver reads.
func runOne(def *workloadDef, seed int64, seconds float64, traced bool) int {
	correct, err := measureAndPrint(def, seed, seconds, traced)
	if err != nil {
		// A run that cannot finish has no result to print.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.Name, err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// measureAndPrint is runOne without the exit code: whether every check
// passed, or the error that left the run without a result.
func measureAndPrint(def *workloadDef, seed int64, seconds float64, traced bool) (correct bool, err error) {
	env := stampEnvironment()
	defs := endToEnd
	var tr *tracer
	if traced {
		defs, tr = perLayer, newTracer()
	}
	res := newResult(defs)
	out := outDir()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	if err := measure(def, seed, seconds, scratch, tr, res); err != nil {
		return false, err
	}
	if missing := res.missing(); len(missing) > 0 {
		return false, fmt.Errorf("no value reported for %v", missing)
	}

	rr := runResult{
		Workload: def.Name, Seed: seed, Seconds: seconds, Traced: traced, Environment: env,
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		FailedShare: float64(res.Failed) / float64(max(res.Attempted, 1)),
		Failures:    res.Failures, Metrics: res.Metrics, Notes: res.Notes,
	}
	if traced {
		rr.LayerSelfMS = layerSelfMS(tr.snapshot())
		if err := tr.write(filepath.Join(out, "trace-"+def.Name+".json")); err != nil {
			return false, err
		}
	}
	if err := writeJSON(detailFile(def.Name, traced), rr); err != nil {
		return false, err
	}

	printRun(&rr, defs)
	line, err := json.Marshal(driverLine{Correct: rr.Correct, Attempted: rr.Attempted, Failed: rr.Failed, Metrics: driverMetrics(res)})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return rr.Correct, nil
}

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMetrics(res *result) map[string]driverMetric {
	m := make(map[string]driverMetric, len(res.Metrics))
	for name, r := range res.Metrics {
		m[name] = driverMetric{Value: r.Value, Unit: r.Unit}
	}
	return m
}

// printRun prints every metric by name with its unit; a timing also shows
// the samples behind it.
func printRun(rr *runResult, defs []metricDef) {
	e := rr.Environment
	fmt.Printf("# %s seed=%d seconds=%g traced=%v | nproc=%d GOMAXPROCS=%d %s %q commit=%s load=%q\n",
		rr.Workload, rr.Seed, rr.Seconds, rr.Traced, e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit, e.LoadAvg)
	for _, d := range defs {
		r := rr.Metrics[d.Name]
		fmt.Printf("%-36s %14.6g %-9s", d.Name, r.Value, r.Unit)
		if s := r.Samples; s != nil {
			fmt.Printf(" n=%d q1=%.6g median=%.6g q3=%.6g", s.N, s.Q1, s.Median, s.Q3)
			if s.TailP > 0 {
				fmt.Printf(" p%g=%.6g", s.TailP*100, s.Tail)
			}
		}
		fmt.Println()
	}
	notes := make([]string, 0, len(rr.Notes))
	for k := range rr.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("note %-31s %14.6g\n", k, rr.Notes[k])
	}
	fmt.Printf("checks: %d attempted, %d failed (failed_share %.6g)\n", rr.Attempted, rr.Failed, rr.FailedShare)
	for _, f := range rr.Failures {
		fmt.Println("FAILED:", f)
	}
}

// measure builds the fixture (several times, for setup_s), runs the
// stages in rounds, each stage with its share of the time, and verifies
// their outputs. An untraced run reports the end-to-end metrics;
// a traced run spends part of its time driving layers alone and reports
// the per-layer metrics.
func measure(def *workloadDef, seed int64, seconds float64, scratch string, tr *tracer, res *result) error {
	total := time.Duration(seconds * float64(time.Second))
	stages := total
	if tr != nil {
		stages = time.Duration(float64(total) * tracedStageShare)
	}
	share := func(s float64) time.Duration { return time.Duration(float64(stages) * s) }
	openOps, closedFor := fleetPlan(share(def.FleetShare) / multiRounds)

	// Set-up is repeated so that its time is a median, not one draw; the
	// last fixture built is the one measured.
	host := newHostMeter()
	defer host.notes(res)
	var f *fixture
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		var err error
		var took time.Duration
		c := host.around(func() {
			start := time.Now()
			f, err = newFixture(def, filepath.Join(scratch, fmt.Sprintf("fixture%d", i)))
			took = time.Since(start)
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds()/c)
	}
	defer f.close()
	// The uploads are the benchmark's input, made from the seed; laying
	// them out is no part of the program's set-up.
	sched, err := buildSchedule(f.corpus, fleetOps(openOps, closedFor), rand.New(rand.NewSource(seed)))
	if err != nil {
		return fmt.Errorf("fleet schedule: %w", err)
	}

	start := time.Now()
	rec, err := startRecording(f, host, tr)
	if err != nil {
		return err
	}
	// The fixed prefix comes out of the record stage's time.
	recordRound := (share(def.RecordShare) - time.Since(start)) / singleRounds
	verifyWindow(rec.img, rec.archive, res)
	rep, err := startReplaying(rec.img, rec.archive, seed, host, tr)
	if err != nil {
		return err
	}
	for r := 0; r < singleRounds; r++ {
		if err := rec.round(recordRound); err != nil {
			return err
		}
		if err := rep.roundSingle(share(def.ReplayShare*(1-parShare)) / singleRounds); err != nil {
			return err
		}
	}
	fl := newFleetRun(f, sched, tr)
	defer fl.client.CloseIdleConnections()
	fl.warmUp()
	for r := 0; r < multiRounds; r++ {
		if err := rep.roundParallel(share(def.ReplayShare*parShare) / multiRounds); err != nil {
			return err
		}
		fl.round(openOps, closedFor)
	}
	if err := rec.finish(); err != nil {
		return err
	}
	rep.verify(res)
	fl.verifyAll(res)

	if tr != nil {
		return driveLayers(f, &rec.recordOut, &rep.replayOut, &fl.fleetOut, total-stages, layerClock{host, tr}, res)
	}
	reportEndToEnd(res, &rec.recordOut, &rep.replayOut, &fl.fleetOut, setupS)
	return nil
}

// reportEndToEnd turns the stages' samples, pooled over the rounds, into
// the end-to-end metrics.
func reportEndToEnd(res *result, rec *recordOut, rep *replayOut, fl *fleetOut, setupS []float64) {
	kinstr := float64(rec.instr) / 1000
	res.timing("record_ns_per_instr", rec.sliceNS)
	res.set("record_alloc_bytes_per_kinstr", float64(rec.allocB)/kinstr)
	res.set("log_bytes_per_kinstr", float64(rec.fll.TotalBytes+rec.mrl.TotalBytes)/kinstr)
	res.set("replay_window_kinstr", rec.windowK)

	res.timing("replay_minstr_per_s", rep.minstrPerS(rep.seqMS))
	res.timing("parreplay_minstr_per_s", rep.minstrPerS(rep.parMS))
	res.timing("debug_open_to_crash_ms", rep.openMS)
	res.timing("reverse_step_ms_p50", rep.rstepMS)
	res.timingAt("reverse_step_ms_p95", rep.rstepMS, 0.95)

	res.set("fleet_replay_kinstr_per_upload", fl.replayKinstrPerUpload())
	// The operator's waits are measured in every run and gate nothing on
	// this box (see README.md, Noise): the traced run reports them as
	// per-layer metrics, this one as notes.
	ack, verdict, late := fl.openLatencies()
	res.note("fleet_ingest_ms_p50", median(ack.pool()))
	res.note("fleet_crash_to_verdict_ms_p50", median(verdict.pool()))
	res.note("fleet_crash_to_verdict_ms_p95", quantile(sorted(verdict.pool()), 0.95))
	res.note("fleet_verdicts_per_s", median(fl.closedRates().pool()))
	res.note("loadgen_late_ms_p95", quantile(sorted(late.pool()), 0.95))
	res.note("poll_quantum_ms", ms(pollQuantum))
	res.note("open_loop_ops", float64(len(ack.pool())))
	res.note("closed_loop_ops", float64(fl.closedOps()))
	res.note("record_slices", float64(len(rec.sliceNS.pool())))

	// Set-up is everything before the first round: the fixture (median of
	// its builds) and the fixed record prefix.
	fixture := summarize(rounds{setupS})
	res.Metrics["setup_s"] = reading{Value: fixture.Median + rec.prefixS, Unit: res.unit("setup_s"), Samples: &fixture}
	res.note("setup_fixture_s", fixture.Median)
	res.note("setup_record_prefix_s", rec.prefixS)
	res.set("peak_rss_mb", peakRSSMB())
}
