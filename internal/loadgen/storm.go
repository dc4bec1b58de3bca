package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/faultinject"
	"bugnet/internal/report"
	"bugnet/internal/triage"
)

// StormOptions configures one storm.
type StormOptions struct {
	// Seed drives both the fault schedule and every probabilistic draw
	// inside the fault plane.
	Seed int64
	// Nodes is the cluster size (default 3).
	Nodes int
	// Duration is the storm length (default 60s).
	Duration time.Duration
	// RPS paces the sender (default 25).
	RPS int
	// Corpus is how many distinct reports the sender cycles through
	// (default 32).
	Corpus int
	// Tick is the schedule granularity (default 500ms).
	Tick time.Duration
	// BaseDir is where the nodes' stores live (required).
	BaseDir string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// StormReport is the storm's outcome — the JSON artifact the CI gate
// reads.
type StormReport struct {
	Seed   int64   `json:"seed"`
	Nodes  int     `json:"nodes"`
	Ticks  int     `json:"ticks"`
	Events []Event `json:"events"`

	Sent   int `json:"sent"`
	Acked  int `json:"acked"`
	Shed   int `json:"shed"`   // 429/503 answers: refused, not lost
	Errors int `json:"errors"` // every other failed upload

	// LostReports lists acked ids that were NOT durably readable from
	// the healed cluster — any entry is an invariant violation.
	LostReports []string `json:"lost_reports,omitempty"`
	// FailedVerdicts lists acked ids whose replay did not complete.
	FailedVerdicts []string `json:"failed_verdicts,omitempty"`
	// RepairDebt is the summed residual replication debt after the
	// convergence window (must be zero).
	RepairDebt int `json:"repair_debt"`
	// MissingMetrics lists expected metric families absent from /metrics.
	MissingMetrics []string `json:"missing_metrics,omitempty"`
	// LeakedGoroutines is how many goroutines outlived the cluster
	// beyond the settle window.
	LeakedGoroutines int `json:"leaked_goroutines"`

	OK bool `json:"ok"`
}

// metricFamilies are the observability series a storm must leave behind
// in a /metrics scrape — proof the retry, breaker, and fault planes all
// actually engaged, and that verdicts travelled between owners.
var metricFamilies = []string{
	"bugnet_retry_total",
	"bugnet_breaker_state",
	"bugnet_faults_injected_total",
	"bugnet_cluster_repairs_total",
	"bugnet_cluster_verdict_push_total",
}

// Storm proves the cluster's durability contract under faults. It
// spawns an in-process cluster and applies a seeded schedule of kills,
// restarts, partitions and disk faults (Schedule) while RunLocal uploads
// the corpus beside it. Then it heals everything and checks that every
// acked report is durably readable and replayable from the surviving
// cluster and that replication debt converges to zero. The schedule is a
// pure function of the seed, so a failing storm reproduces from its
// printed seed.
//
// The error return is for harness failures (could not spawn, could not
// build the corpus); invariant violations are reported in StormReport
// fields with OK=false.
func Storm(opt StormOptions) (*StormReport, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 3
	}
	if opt.Duration <= 0 {
		opt.Duration = 60 * time.Second
	}
	if opt.RPS <= 0 {
		opt.RPS = 25
	}
	if opt.Corpus <= 0 {
		opt.Corpus = 32
	}
	if opt.Tick <= 0 {
		opt.Tick = 500 * time.Millisecond
	}
	if opt.BaseDir == "" {
		return nil, fmt.Errorf("loadgen: StormOptions.BaseDir is required")
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx := context.Background()

	goroutinesBefore := runtime.NumGoroutine()

	reg := triage.NewImageRegistry()
	corpus, err := cluster.Corpus(opt.Corpus, reg)
	if err != nil {
		return nil, err
	}
	plane := faultinject.NewPlane(opt.Seed)
	lc, err := cluster.SpawnLocal(opt.Nodes, cluster.SpawnOptions{
		BaseDir:       opt.BaseDir,
		Resolver:      reg.Resolve,
		Replication:   3,
		WriteQuorum:   2,
		RetryInterval: 200 * time.Millisecond,
		Workers:       1,
		PeerTimeout:   3 * time.Second,
		// A short cooldown so circuits re-probe quickly after heals.
		BreakerCooldown: time.Second,
		FaultPlane:      plane,
	})
	if err != nil {
		return nil, err
	}
	urls := lc.URLs()

	ticks := int(opt.Duration / opt.Tick)
	if ticks < 1 {
		ticks = 1
	}
	rep := &StormReport{Seed: opt.Seed, Nodes: opt.Nodes, Ticks: ticks}
	rep.Events = Schedule(opt.Seed, opt.Nodes, ticks)
	byTick := make(map[int][]Event)
	for _, ev := range rep.Events {
		byTick[ev.Tick] = append(byTick[ev.Tick], ev)
	}
	logf("storm: seed %d, %d nodes, %d ticks of %s, %d events, %d rps",
		opt.Seed, opt.Nodes, ticks, opt.Tick, len(rep.Events), opt.RPS)

	// The uploads: a load run for the storm's length, its drain skipped
	// because the cluster is healed first. 201 and 200 (duplicate) are
	// both acks — the server claimed durability either way. Sheds and
	// errors are legitimate under a storm; only an acked-then-lost
	// report is a violation.
	var res *Result
	sent := make(chan error, 1)
	go func() {
		var err error
		res, err = RunLocal(ctx, lc, Options{
			Corpus:       corpus,
			RPS:          float64(opt.RPS),
			Duration:     time.Duration(ticks) * opt.Tick,
			DrainTimeout: -1,
		})
		sent <- err
	}()

	// The storm loop: apply each tick's events, then let traffic run.
	for tick := 0; tick < ticks; tick++ {
		for _, ev := range byTick[tick] {
			applyEvent(lc, plane, urls, ev)
			logf("tick %d: %s node %d (peer %d)", tick, ev.Kind, ev.Node, ev.Peer)
		}
		time.Sleep(opt.Tick)
	}
	if err := <-sent; err != nil {
		lc.Close()
		return nil, err
	}

	// Heal everything the schedule left dangling (it should not have, but
	// the invariant check must run against a fully healed cluster). A
	// restart retries while the OS still holds the port after the churn.
	plane.HealAll()
	for _, ln := range lc.Nodes {
		var err error
		if !waitFor(ctx, 5*time.Second, func() bool { err = ln.Restart(); return err == nil }) {
			lc.Close()
			return nil, fmt.Errorf("loadgen: restarting node after storm: %w", err)
		}
	}
	rep.Sent, rep.Acked = res.Sent, len(res.Acked)
	rep.Shed = res.Shed + res.Unavailable
	rep.Errors = res.Sent - res.Created - res.Duplicate - rep.Shed
	logf("storm over: %d sent, %d acked, %d shed, %d errors; verifying",
		rep.Sent, rep.Acked, rep.Shed, rep.Errors)

	// Settle: replay queues drain so every verdict is final.
	for _, ln := range lc.Nodes {
		ln.Service.WaitIdle()
	}

	// Invariant 1: every acked report is durably readable — correct bytes
	// from EVERY node (local or proxied; reads also trigger read-repair,
	// which accelerates convergence below).
	for _, id := range res.Acked {
		for _, u := range urls {
			if !waitFor(ctx, 30*time.Second, func() bool { return readable(u, id) }) {
				rep.LostReports = append(rep.LostReports, id+" via "+u)
				break
			}
		}
	}
	// ...and replayable: its replay verdict completed.
	for _, id := range res.Acked {
		if !waitFor(ctx, 30*time.Second, func() bool { return verdictDone(urls[0], id) }) {
			rep.FailedVerdicts = append(rep.FailedVerdicts, id)
		}
	}
	for _, ln := range lc.Nodes {
		ln.Service.WaitIdle() // read-repair may have queued fresh replays
	}

	// Invariant 2: replication debt converges to zero.
	waitFor(ctx, 60*time.Second, func() bool {
		rep.RepairDebt = 0
		for _, ln := range lc.Nodes {
			rep.RepairDebt += ln.Node.RepairDebt()
		}
		return rep.RepairDebt == 0
	})

	// Invariant 3: the retry/breaker/fault instrumentation all left
	// series behind.
	exported, _ := scrapeSum(urls[:1])
	for _, fam := range metricFamilies {
		if _, ok := exported[fam]; !ok {
			rep.MissingMetrics = append(rep.MissingMetrics, fam)
		}
	}

	// Invariant 4: nothing outlives the cluster.
	lc.Close()
	client.CloseIdleConnections()
	waitFor(ctx, 10*time.Second, func() bool {
		rep.LeakedGoroutines = max(runtime.NumGoroutine()-goroutinesBefore-2, 0) // runtime slack
		return rep.LeakedGoroutines == 0
	})

	rep.OK = len(rep.LostReports) == 0 &&
		len(rep.FailedVerdicts) == 0 &&
		rep.RepairDebt == 0 &&
		len(rep.MissingMetrics) == 0 &&
		rep.LeakedGoroutines == 0
	return rep, nil
}

func applyEvent(lc *cluster.LocalCluster, plane *faultinject.Plane, urls []string, ev Event) {
	switch ev.Kind {
	case EventKill:
		lc.Nodes[ev.Node].Stop()
	case EventRestart:
		// Best effort mid-storm; the post-storm heal retries harder.
		lc.Nodes[ev.Node].Restart()
	case EventPartition:
		plane.Partition(urls[ev.Node], urls[ev.Peer])
	case EventHealPartition:
		plane.HealPartition(urls[ev.Node], urls[ev.Peer])
	case EventDiskFault:
		plane.SetDiskFault(fmt.Sprintf("node%d", ev.Node), &faultinject.DiskFault{
			Err:  faultinject.ErrInjectedIO,
			Prob: 0.5,
			Torn: true,
		})
	case EventDiskHeal:
		plane.SetDiskFault(fmt.Sprintf("node%d", ev.Node), nil)
	}
}

// readable fetches one report's raw bytes via a node and checks they
// hash back to the id — durability means the content, not a 200.
func readable(base, id string) bool {
	resp, err := client.Get(base + "/api/v1/reports/" + id + "?raw=1")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && report.ID(data) == id
}

// verdictDone reports whether a report's replay verdict reached "done".
func verdictDone(base, id string) bool {
	resp, err := client.Get(base + "/api/v1/reports/" + id)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var m triage.ReportMeta
	return json.NewDecoder(resp.Body).Decode(&m) == nil && resp.StatusCode == http.StatusOK &&
		m.Verdict != nil && m.Verdict.State == triage.VerdictDone
}
