package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// setResult is what `--workload all` writes to out/result.json: one
// untraced run per workload and, with --trace 1, one traced run each.
type setResult struct {
	Environment environment `json:"environment"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Runs        []runResult `json:"runs"`
}

// runChild measures one workload in a child process, so that heap, GC
// state and the process-wide metrics registry never leak from one
// workload into the next, and returns the detail file the child wrote.
func runChild(def *workloadDef, seed int64, seconds float64, traced bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	flag := "0"
	if traced {
		flag = "1"
	}
	cmd := exec.Command(self, "--workload", def.Name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", flag)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detailFile(def.Name, traced))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, runErr)
		}
		return nil, err
	}
	var rr runResult
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, err
	}
	if runErr != nil && rr.Correct {
		return nil, fmt.Errorf("%s: %w", def.Name, runErr)
	}
	return &rr, nil
}

// runSet runs every workload once (and once more traced, when asked).
func runSet(seed int64, seconds float64, traced bool) (*setResult, error) {
	set := &setResult{Environment: stampEnvironment(), Seed: seed, Seconds: seconds}
	for _, withTrace := range []bool{false, true}[:1+btoi(traced)] {
		for i := range workloads {
			// A stale detail file must not pass for this run's.
			os.Remove(detailFile(workloads[i].Name, withTrace))
			rr, err := runChild(&workloads[i], seed, seconds, withTrace)
			if err != nil {
				return nil, err
			}
			set.Runs = append(set.Runs, *rr)
		}
	}
	return set, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runAll(seed int64, seconds float64, traced bool) int {
	set, err := runSet(seed, seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(outDir(), "result.json"), set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, r := range set.Runs {
		if !r.Correct {
			fmt.Printf("FAILED: %s: %d of %d checks\n", r.Workload, r.Failed, r.Attempted)
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// aaRow is one (workload, metric) pairing across the A/A sets.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"` // interquartile distance / median
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
}

// judgeAA compares what n runs of the same code on one workload reported:
// a metric's spread must stay within its bound, and an exact metric must
// read the same every time.
func judgeAA(workload string, runs []map[string]reading) []aaRow {
	var rows []aaRow
	for _, d := range endToEnd {
		row := aaRow{Workload: workload, Metric: d.Name, Bound: d.Bound}
		for _, m := range runs {
			row.Values = append(row.Values, m[d.Name].Value)
		}
		_, row.Median, _ = quartiles(row.Values)
		row.Spread = spread(row.Values)
		row.Within = row.Spread <= d.Bound
		if d.Exact {
			row.Within = row.Spread == 0
		}
		rows = append(rows, row)
	}
	return rows
}

// runAA runs n full untraced sets back to back, each with its own seed,
// and prints every gate metric's spread against its bound.
func runAA(n int, seed int64, seconds float64) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: --aa needs at least 2 sets to have a spread")
		return 2
	}
	perWorkload := make(map[string][]map[string]reading)
	for i := 0; i < n; i++ {
		set, err := runSet(seed+int64(i), seconds, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, r := range set.Runs {
			if !r.Correct {
				fmt.Printf("FAILED: set %d %s: %d of %d checks\n", i, r.Workload, r.Failed, r.Attempted)
				return 1
			}
			perWorkload[r.Workload] = append(perWorkload[r.Workload], r.Metrics)
		}
	}
	var rows []aaRow
	ok := true
	fmt.Printf("\n# A/A: %d sets, seeds %d..%d\n", n, seed, seed+int64(n)-1)
	for i := range workloads {
		for _, row := range judgeAA(workloads[i].Name, perWorkload[workloads[i].Name]) {
			verdict := "ok"
			if !row.Within {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Printf("%-16s %-32s median %12.6g spread %7.3f%% bound %5.1f%% %s\n",
				row.Workload, row.Metric, row.Median, 100*row.Spread, 100*row.Bound, verdict)
			rows = append(rows, row)
		}
	}
	if err := writeJSON(filepath.Join(outDir(), "aa.json"), rows); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
