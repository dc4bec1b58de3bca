// Package chaos is the soak harness that proves the cluster's durability
// contract under faults: it spawns an in-process cluster, drives a
// seeded storm of kills, restarts, partitions, and disk faults against
// it while a paced sender uploads the loadgen corpus, then heals
// everything and asserts the invariant — every acked report is durably
// readable and replayable from the surviving cluster, and replication
// debt converges to zero. The fault schedule is a pure function of the
// seed (schedule.go), so a failing storm reproduces from its printed
// seed.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/faultinject"
	"bugnet/internal/loadgen"
	"bugnet/internal/triage"
)

// Options configures one storm.
type Options struct {
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

// Report is the storm's outcome — the JSON artifact the CI gate reads.
type Report struct {
	Seed   int64   `json:"seed"`
	Nodes  int     `json:"nodes"`
	Ticks  int     `json:"ticks"`
	Events []Event `json:"events"`

	Sent   int `json:"sent"`
	Acked  int `json:"acked"`
	Shed   int `json:"shed"`   // 429/503 answers: refused, not lost
	Errors int `json:"errors"` // transport failures and 5xx answers

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

// Run executes one storm and returns its report. The error return is for
// harness failures (could not spawn, could not build the corpus);
// invariant violations are reported in Report fields with OK=false.
func Run(opt Options) (*Report, error) {
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
		return nil, fmt.Errorf("chaos: Options.BaseDir is required")
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	goroutinesBefore := runtime.NumGoroutine()

	reg := triage.NewImageRegistry()
	corpus, err := loadgen.Corpus(opt.Corpus, reg)
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
	rep := &Report{Seed: opt.Seed, Nodes: opt.Nodes, Ticks: ticks}
	rep.Events = Schedule(opt.Seed, opt.Nodes, ticks)
	byTick := make(map[int][]Event)
	for _, ev := range rep.Events {
		byTick[ev.Tick] = append(byTick[ev.Tick], ev)
	}
	logf("storm: seed %d, %d nodes, %d ticks of %s, %d events, %d rps",
		opt.Seed, opt.Nodes, ticks, opt.Tick, len(rep.Events), opt.RPS)

	// The sender: paced uploads of corpus blobs to random nodes, with an
	// ack ledger. 201 and 200 (duplicate) are both acks — the server
	// claimed durability either way. Sheds and errors are legitimate
	// under a storm; only an acked-then-lost report is a violation.
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: http.DefaultTransport.(*http.Transport).Clone(),
	}
	var mu sync.Mutex
	acked := make(map[string]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eedfeed))
		tk := time.NewTicker(time.Second / time.Duration(opt.RPS))
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
			}
			blob := corpus[rng.Intn(len(corpus))]
			target := urls[rng.Intn(len(urls))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(target+"/api/v1/reports",
					"application/octet-stream", bytes.NewReader(blob))
				mu.Lock()
				defer mu.Unlock()
				rep.Sent++
				if err != nil {
					rep.Errors++
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusCreated, http.StatusOK:
					acked[blobSum(blob)] = true
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					rep.Shed++
				default:
					rep.Errors++
				}
			}()
		}
	}()

	// The storm loop: apply each tick's events, then let traffic run.
	for tick := 0; tick < ticks; tick++ {
		for _, ev := range byTick[tick] {
			applyEvent(lc, plane, urls, ev)
			logf("tick %d: %s node %d (peer %d)", tick, ev.Kind, ev.Node, ev.Peer)
		}
		time.Sleep(opt.Tick)
	}
	close(stop)
	wg.Wait()

	// Heal everything the schedule left dangling (it should not have, but
	// the invariant check must run against a fully healed cluster).
	plane.HealAll()
	for _, ln := range lc.Nodes {
		if err := restartWithRetry(ln); err != nil {
			lc.Close()
			return nil, fmt.Errorf("chaos: restarting node after storm: %w", err)
		}
	}
	mu.Lock()
	rep.Acked = len(acked)
	ids := make([]string, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	mu.Unlock()
	sort.Strings(ids)
	logf("storm over: %d sent, %d acked, %d shed, %d errors; verifying",
		rep.Sent, rep.Acked, rep.Shed, rep.Errors)

	// Settle: replay queues drain so every verdict is final.
	for _, ln := range lc.Nodes {
		ln.Service.WaitIdle()
	}

	// Invariant 1: every acked report is durably readable — correct bytes
	// from EVERY node (local or proxied; reads also trigger read-repair,
	// which accelerates convergence below).
	for _, id := range ids {
		for _, u := range urls {
			if !readableFrom(client, u, id) {
				rep.LostReports = append(rep.LostReports, id+" via "+u)
				break
			}
		}
	}
	// ...and replayable: its replay verdict completed.
	for _, id := range ids {
		if !verdictDone(client, urls[0], id) {
			rep.FailedVerdicts = append(rep.FailedVerdicts, id)
		}
	}
	for _, ln := range lc.Nodes {
		ln.Service.WaitIdle() // read-repair may have queued fresh replays
	}

	// Invariant 2: replication debt converges to zero.
	debtDeadline := time.Now().Add(60 * time.Second)
	for {
		debt := 0
		for _, ln := range lc.Nodes {
			debt += ln.Node.RepairDebt()
		}
		rep.RepairDebt = debt
		if debt == 0 || time.Now().After(debtDeadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Invariant 3: the retry/breaker/fault instrumentation all left
	// series behind.
	rep.MissingMetrics = missingFamilies(client, urls[0])

	// Invariant 4: nothing outlives the cluster.
	lc.Close()
	client.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	settle := time.Now().Add(10 * time.Second)
	for {
		leaked := runtime.NumGoroutine() - goroutinesBefore - 2 // runtime slack
		if leaked < 0 {
			leaked = 0
		}
		rep.LeakedGoroutines = leaked
		if leaked == 0 || time.Now().After(settle) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

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

// restartWithRetry rebinds a node's address, tolerating the OS briefly
// holding the port after the storm's churn.
func restartWithRetry(ln *cluster.LocalNode) error {
	var err error
	for i := 0; i < 50; i++ {
		if err = ln.Restart(); err == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}

// readableFrom fetches one report's raw bytes via a node and verifies
// they hash back to the id — durability means the content, not a 200.
func readableFrom(client *http.Client, base, id string) bool {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/api/v1/reports/" + id + "?raw=1")
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && blobSum(data) == id {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// verdictDone reports whether a report's replay verdict reached "done".
func verdictDone(client *http.Client, base, id string) bool {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/api/v1/reports/" + id)
		if err == nil {
			var m triage.ReportMeta
			derr := json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK &&
				m.Verdict != nil && m.Verdict.State == triage.VerdictDone {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func missingFamilies(client *http.Client, base string) []string {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return append([]string{}, metricFamilies...)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return append([]string{}, metricFamilies...)
	}
	var missing []string
	for _, fam := range metricFamilies {
		if !strings.Contains(string(data), fam) {
			missing = append(missing, fam)
		}
	}
	return missing
}

func blobSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
