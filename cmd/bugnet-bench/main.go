// Command bugnet-bench regenerates the tables and figures of the paper's
// evaluation (§6).
//
//	bugnet-bench [-experiment id] [-scale N]
//
// Experiment ids: table1 fig2 fig3 fig4 fig5 fig6 (dict runs both) table2
// table3 overhead ablation-preservefl ablation-netzer ablation-dict backend
// all (default "all").
//
// The scale divides the paper's instruction counts: -scale 1 reproduces
// the paper's absolute checkpoint intervals and replay windows (expect
// minutes of runtime); the default 100 preserves every relative result at
// laptop speed.
//
// Performance is measured elsewhere: `bash benchmark/run.sh` (see
// benchmark/README.md and BENCHMARK.json) is the repository's one
// benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bugnet/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id: "+strings.Join(bench.IDs(), " "))
	scale := flag.Int("scale", bench.DefaultScale, "divide the paper's instruction counts by this factor (1 = paper scale)")
	flag.Parse()

	start := time.Now()
	tables, err := bench.ByID(*experiment, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "available experiments:", strings.Join(bench.IDs(), ", "))
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	fmt.Printf("completed %s at scale 1/%d in %v\n", *experiment, *scale, time.Since(start).Round(time.Millisecond))
}
