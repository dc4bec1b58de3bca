// Command bugnet-loadgen replays a synthetic crash corpus against a
// bugnet cluster and reports what a fleet rollout would care about:
// ingest latency quantiles (p50/p99) under admission control and
// replica forwarding, and replay-verdict throughput out the back.
//
// Two modes:
//
//	bugnet-loadgen -targets http://a:8080,http://b:8080 -rps 100 -duration 30s
//	bugnet-loadgen -nodes 3 -rps 50 -duration 30s        # self-hosted in-process cluster
//
// -nodes spins up an in-process cluster (real loopback HTTP between the
// nodes) so CI and laptops can load-test the full coordinator path —
// ring placement, quorum forwarding, admission — with zero deployment.
// Against external -targets, the corpus binaries are unknown to the
// servers unless registered there, so verdicts resolve as "failed: no
// registered binary"; ingest-path numbers are unaffected.
//
// Exit status: 0 on success, 1 on setup/run failure, 2 when an -assert-*
// check fails — CI gates on it (.github/workflows/ci.yml cluster-smoke).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/loadgen"
	"bugnet/internal/triage"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the exit status so that its deferred
// cleanup (the -nodes cluster and its store dir) runs on every path.
func run() int {
	targets := flag.String("targets", "", "comma-separated node base URLs to load")
	nodes := flag.Int("nodes", 0, "spawn this many in-process cluster nodes instead of using -targets")
	replication := flag.Int("replication", 3, "replication factor for -nodes clusters")
	quorum := flag.Int("write-quorum", 0, "write quorum for -nodes clusters (0 = majority)")
	rps := flag.Float64("rps", 50, "aggregate upload rate")
	concurrency := flag.Int("concurrency", 8, "sender pool size")
	duration := flag.Duration("duration", 10*time.Second, "send window")
	corpusN := flag.Int("corpus", 32, "distinct crash archives in the corpus")
	drain := flag.Duration("drain", 30*time.Second, "max wait for replay queues to empty before reading throughput (negative = skip)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	assertNo5xx := flag.Bool("assert-no-5xx", false, "exit 2 if any request returned 5xx or a transport error")
	assertP99 := flag.Duration("assert-p99", 0, "exit 2 if ingest p99 exceeds this (0 = no check)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := triage.NewImageRegistry()
	corpus, err := cluster.Corpus(*corpusN, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	opt := loadgen.Options{
		Corpus:       corpus,
		RPS:          *rps,
		Concurrency:  *concurrency,
		Duration:     *duration,
		DrainTimeout: *drain,
	}

	var res *loadgen.Result
	switch {
	case *nodes > 0:
		var dir string
		if dir, err = os.MkdirTemp("", "bugnet-loadgen-"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		var lc *cluster.LocalCluster
		lc, err = cluster.SpawnLocal(*nodes, cluster.SpawnOptions{
			BaseDir:       dir,
			Resolver:      reg.Resolve,
			Replication:   *replication,
			WriteQuorum:   *quorum,
			RetryInterval: 500 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer lc.Close()
		fmt.Fprintf(os.Stderr, "spawned %d-node cluster (replication=%d quorum=%d): %s\n",
			*nodes, lc.Nodes[0].Node.ReplicationFactor(), lc.Nodes[0].Node.WriteQuorum(),
			strings.Join(lc.URLs(), " "))
		res, err = loadgen.RunLocal(ctx, lc, opt)
	case *targets != "":
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				opt.Targets = append(opt.Targets, t)
			}
		}
		res, err = loadgen.Run(ctx, opt)
	default:
		fmt.Fprintln(os.Stderr, "bugnet-loadgen: need -targets or -nodes")
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		fmt.Println(res)
	}

	status := 0
	if *assertNo5xx && (res.Errors5xx > 0 || res.TransportErrors > 0) {
		fmt.Fprintf(os.Stderr, "ASSERT FAILED: %d 5xx, %d transport errors\n",
			res.Errors5xx, res.TransportErrors)
		status = 2
	}
	if *assertP99 > 0 && res.P99 > *assertP99 {
		fmt.Fprintf(os.Stderr, "ASSERT FAILED: p99 %s exceeds %s\n", res.P99, *assertP99)
		status = 2
	}
	return status
}
