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
	// Concurrency is the sender pool (default 8).
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
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
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

// Run drives the corpus at the configured rate until Duration elapses or
// ctx is cancelled, then waits for the replay queues to drain and reads
// verdict throughput from /metrics.
func Run(ctx context.Context, opt Options) (*Result, error) {
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
	scrape := opt.ScrapeTargets
	if len(scrape) == 0 {
		scrape = opt.Targets
	}
	drain := opt.DrainTimeout
	if drain == 0 {
		drain = 30 * time.Second
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	verdictsBefore, _ := scrapeSum(client, scrape, "bugnet_triage_verdicts_total")
	adoptedBefore, _ := scrapeSum(client, scrape, "bugnet_triage_verdicts_adopted_total")

	res := &Result{}
	var mu sync.Mutex
	var latencies []time.Duration

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

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				target := opt.Targets[seq%len(opt.Targets)]
				blob := opt.Corpus[seq%len(opt.Corpus)]
				t0 := time.Now()
				status, err := postReport(runCtx, client, target, blob)
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
				case status == http.StatusCreated:
					res.Created++
					latencies = append(latencies, d)
				case status == http.StatusOK:
					res.Duplicate++
					latencies = append(latencies, d)
				case status == http.StatusTooManyRequests:
					res.Shed++
				case status >= 500:
					res.Errors5xx++
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

	if drain > 0 {
		waitDrained(ctx, client, scrape, drain)
	}
	verdictsAfter, err := scrapeSum(client, scrape, "bugnet_triage_verdicts_total")
	if err == nil {
		res.Verdicts = verdictsAfter - verdictsBefore
		if secs := time.Since(start).Seconds(); secs > 0 {
			res.VerdictsPerSec = float64(res.Verdicts) / secs
		}
	}
	if adoptedAfter, err := scrapeSum(client, scrape, "bugnet_triage_verdicts_adopted_total"); err == nil {
		res.Adopted = adoptedAfter - adoptedBefore
	}
	return res, nil
}

func postReport(ctx context.Context, client *http.Client, target string, blob []byte) (int, error) {
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

// waitDrained polls the replay queue gauge until every scrape target
// reports empty, the timeout passes, or ctx ends.
func waitDrained(ctx context.Context, client *http.Client, targets []string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		depth, err := scrapeSum(client, targets, "bugnet_triage_queue_depth")
		if err == nil && depth == 0 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrapeSum sums every sample of one metric family across targets.
func scrapeSum(client *http.Client, targets []string, name string) (int64, error) {
	var total int64
	var lastErr error
	seen := false
	for _, t := range targets {
		v, err := scrapeOne(client, t, name)
		if err != nil {
			lastErr = err
			continue
		}
		seen = true
		total += v
	}
	if !seen {
		return 0, lastErr
	}
	return total, nil
}

func scrapeOne(client *http.Client, target, name string) (int64, error) {
	resp, err := client.Get(strings.TrimRight(target, "/") + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Accept "name 3" and `name{label="x"} 3`; reject longer names
		// sharing the prefix.
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += int64(v)
	}
	return total, nil
}
