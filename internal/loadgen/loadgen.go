// Package loadgen replays a synthetic crash corpus against a bugnet
// cluster at a configured rate, measuring what a fleet rollout would:
// ingest latency quantiles under admission control and forwarding, and
// replay-verdict throughput out the back. Storm runs the same sender
// against an in-process cluster under a seeded fault schedule and checks
// that every acked report survives. It is the one fleet load harness
// behind cmd/bugnet-loadgen, cmd/bugnet-chaos and the CI cluster-smoke
// and chaos-smoke jobs.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/report"
)

// Options configures one load run.
type Options struct {
	// Targets are node base URLs; uploads round-robin across them so
	// every node exercises its coordinator path. Required.
	Targets []string
	// Corpus is the set of archives to replay, cycled. Required.
	Corpus [][]byte
	// RPS is the aggregate upload rate (default 50).
	RPS float64
	// Concurrency is the sender pool: at most this many uploads are in
	// flight at once (default 8).
	Concurrency int
	// Duration is how long to send (default 10s).
	Duration time.Duration
	// ScrapeTargets are the /metrics endpoints consulted for verdict
	// throughput (default Targets). In-process clusters share one metrics
	// registry, so their callers scrape a single node to avoid counting
	// the same global totals once per node.
	ScrapeTargets []string
	// DrainTimeout bounds the post-send wait for replay queues to empty
	// before throughput is read (default 30s; 0 keeps the default, use a
	// negative value to skip draining).
	DrainTimeout time.Duration
}

// Result is what one run measured.
type Result struct {
	Sent      int `json:"sent"`
	Created   int `json:"created"`
	Duplicate int `json:"duplicate"`
	// Shed counts 429s — admission control working, not failure.
	Shed            int `json:"shed"`
	Errors4xx       int `json:"errors_4xx"`
	Errors5xx       int `json:"errors_5xx"`
	TransportErrors int `json:"transport_errors"`
	// Cancelled counts in-flight requests cut off by the run deadline —
	// an artifact of stopping, not a server failure.
	Cancelled int `json:"cancelled"`

	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	Elapsed time.Duration `json:"elapsed_ns"`
	// AchievedRPS is accepted uploads (created+duplicate) per second.
	AchievedRPS float64 `json:"achieved_rps"`
	// Verdicts is the replay-verdict delta across the run (drained):
	// archives a node replayed. Adopted is the verdicts the other owners
	// took from the node that did.
	Verdicts       int64   `json:"verdicts"`
	Adopted        int64   `json:"adopted"`
	VerdictsPerSec float64 `json:"verdicts_per_sec"`

	// Unavailable counts the 503s among Errors5xx: a node refusing a
	// write it cannot place, which a storm counts as shed.
	Unavailable int `json:"-"`
	// Acked lists, sorted, the ids of the archives some node acked with
	// 201 or 200: each one the cluster claimed durable.
	Acked []string `json:"-"`
}

func (r *Result) String() string {
	return fmt.Sprintf(
		"sent=%d created=%d dup=%d shed=%d 4xx=%d 5xx=%d transport=%d cancelled=%d\n"+
			"ingest p50=%s p99=%s max=%s achieved=%.1f rps\n"+
			"verdicts=%d adopted=%d (%.1f/s) over %s",
		r.Sent, r.Created, r.Duplicate, r.Shed, r.Errors4xx, r.Errors5xx, r.TransportErrors, r.Cancelled,
		r.P50, r.P99, r.Max, r.AchievedRPS,
		r.Verdicts, r.Adopted, r.VerdictsPerSec, r.Elapsed.Round(time.Millisecond))
}

// client carries every request of a run or storm. Its transport is
// http.DefaultTransport, whose idle connections a storm closes before
// counting leaked goroutines.
var client = &http.Client{Timeout: 30 * time.Second}

// Run drives the corpus at the configured rate until Duration elapses or
// ctx is cancelled, then waits for the replay queues to drain, summing
// the bugnet_triage_queue_depth gauge over the scrape targets, and reads
// verdict throughput from /metrics.
func Run(ctx context.Context, opt Options) (*Result, error) {
	return run(ctx, opt, nil)
}

// RunLocal is Run against an in-process cluster. It loads every node and
// scrapes only the first: in-process nodes share one metrics registry.
// For the same reason it drains on the nodes themselves, until no
// node's service owes a verdict; the shared queue gauge holds only the
// depth of whichever node set it last.
func RunLocal(ctx context.Context, lc *cluster.LocalCluster, opt Options) (*Result, error) {
	opt.Targets = lc.URLs()
	opt.ScrapeTargets = opt.Targets[:1]
	return run(ctx, opt, lc.Nodes)
}

func run(ctx context.Context, opt Options, nodes []*cluster.LocalNode) (*Result, error) {
	if len(opt.Targets) == 0 {
		return nil, errors.New("loadgen: no targets")
	}
	if len(opt.Corpus) == 0 {
		return nil, errors.New("loadgen: empty corpus")
	}
	if opt.RPS <= 0 {
		opt.RPS = 50
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 8
	}
	if opt.Duration <= 0 {
		opt.Duration = 10 * time.Second
	}
	scrapeTargets := opt.ScrapeTargets
	if len(scrapeTargets) == 0 {
		scrapeTargets = opt.Targets
	}
	drain := opt.DrainTimeout
	if drain == 0 {
		drain = 30 * time.Second
	}

	before, _ := scrapeSum(scrapeTargets)
	start := time.Now()
	res := send(ctx, opt)

	if drain > 0 {
		waitFor(ctx, drain, func() bool {
			if nodes != nil {
				for _, n := range nodes {
					if n.Service.Pending() > 0 {
						return false
					}
				}
				return true
			}
			m, err := scrapeSum(scrapeTargets)
			return err == nil && m["bugnet_triage_queue_depth"] == 0
		})
	}
	if after, err := scrapeSum(scrapeTargets); err == nil {
		const verdicts, adopted = "bugnet_triage_verdicts_total", "bugnet_triage_verdicts_adopted_total"
		res.Verdicts = after[verdicts] - before[verdicts]
		res.Adopted = after[adopted] - before[adopted]
		if secs := time.Since(start).Seconds(); secs > 0 {
			res.VerdictsPerSec = float64(res.Verdicts) / secs
		}
	}
	return res, nil
}

// send uploads the corpus at opt.RPS through a pool of opt.Concurrency
// senders until opt.Duration elapses or ctx ends, and tallies the
// answers.
//
// Upload seq carries blob seq%len(Corpus) to the targets round robin,
// shifted one target on after each second of offered load. Round robin
// alone pins blob b to target b%len(Targets) whenever the target count
// divides the corpus size; the shift sends every blob to a second
// coordinator a second later, long after its first copy reached the
// other owners. Sooner, two first uploads of one blob can race and both
// coordinators replay it.
func send(ctx context.Context, opt Options) *Result {
	ids := make([]string, len(opt.Corpus))
	for i, blob := range opt.Corpus {
		ids[i] = report.ID(blob)
	}
	res := &Result{}
	var mu sync.Mutex
	var latencies []time.Duration
	acked := make(map[string]bool)

	runCtx, cancel := context.WithTimeout(ctx, opt.Duration)
	defer cancel()

	// The pacer hands sequence numbers to the sender pool at RPS. The
	// channel buffer absorbs scheduler jitter; when the pool is saturated
	// the pacer blocks, so measured latency degrades before offered load
	// runs away from the cluster.
	jobs := make(chan int, opt.Concurrency)
	interval := time.Duration(float64(time.Second) / opt.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	perSecond := max(int(opt.RPS), 1)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				blob := seq % len(opt.Corpus)
				target := opt.Targets[(seq+seq/perSecond)%len(opt.Targets)]
				t0 := time.Now()
				status, err := postReport(runCtx, target, opt.Corpus[blob])
				d := time.Since(t0)
				mu.Lock()
				res.Sent++
				switch {
				case err != nil:
					if runCtx.Err() != nil {
						res.Cancelled++
					} else {
						res.TransportErrors++
					}
				case status == http.StatusCreated || status == http.StatusOK:
					if status == http.StatusCreated {
						res.Created++
					} else {
						res.Duplicate++
					}
					latencies = append(latencies, d)
					acked[ids[blob]] = true
				case status == http.StatusTooManyRequests:
					res.Shed++
				case status >= 500:
					res.Errors5xx++
					if status == http.StatusServiceUnavailable {
						res.Unavailable++
					}
				default:
					res.Errors4xx++
				}
				mu.Unlock()
			}
		}()
	}

	ticker := time.NewTicker(interval)
pace:
	for seq := 0; ; seq++ {
		select {
		case <-runCtx.Done():
			break pace
		case <-ticker.C:
			select {
			case jobs <- seq:
			case <-runCtx.Done():
				break pace
			}
		}
	}
	ticker.Stop()
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = quantile(latencies, 0.50)
	res.P99 = quantile(latencies, 0.99)
	if len(latencies) > 0 {
		res.Max = latencies[len(latencies)-1]
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.AchievedRPS = float64(res.Created+res.Duplicate) / secs
	}
	for id := range acked {
		res.Acked = append(res.Acked, id)
	}
	sort.Strings(res.Acked)
	return res
}

func postReport(ctx context.Context, target string, blob []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(target, "/")+"/api/v1/reports", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, nil
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// waitFor calls cond every 100ms until it holds, timeout passes or ctx
// ends, and reports whether it held. cond runs at least once.
func waitFor(ctx context.Context, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if ctx.Err() != nil || time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
	return true
}

// scrapeSum adds up scrape over targets, skipping those that fail; it
// fails only if every target does.
func scrapeSum(targets []string) (map[string]int64, error) {
	var total map[string]int64
	var lastErr error
	for _, t := range targets {
		m, err := scrape(t)
		if err != nil {
			lastErr = err
			continue
		}
		if total == nil {
			total = m
			continue
		}
		for name, v := range m {
			total[name] += v
		}
	}
	if total == nil {
		return nil, lastErr
	}
	return total, nil
}

// scrape reads one target's /metrics into each family's summed samples,
// over every label set. A family the exposition declares (its # TYPE
// line) is in the map even with no samples, so one read answers both
// "how many" and "is it exported".
func scrape(target string) (map[string]int64, error) {
	resp, err := client.Get(strings.TrimRight(target, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET %s/metrics: %s", target, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(decl, " ")
			m[name] += 0 // declared: present at 0 until a sample adds to it
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end <= 0 || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		m[line[:end]] += int64(v)
	}
	return m, nil
}
