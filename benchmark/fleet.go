package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bugnet/internal/core"
	"bugnet/internal/obs"
	"bugnet/internal/report"
	"bugnet/internal/triage"
	"bugnet/internal/workload"
)

// corpus is the eighteen Table 1 bug analogues, each recorded once. A
// fresh archive is the same recording re-packed under a new PID: a new
// content address in the same crash bucket, which is what a fleet of
// machines hitting one bug uploads.
type corpus struct {
	names   []string
	reports []*core.CrashReport
	nextPID []uint32
}

func recordCorpus(reg *triage.ImageRegistry) (*corpus, error) {
	c := &corpus{}
	for _, b := range workload.Bugs(bugScale) {
		res, rep, rec := core.Record(b.Image, b.Kernel, core.Config{IntervalLength: corpusInterval})
		if res.Crash == nil {
			return nil, fmt.Errorf("corpus: %s did not crash", b.Name)
		}
		if err := rec.Err(); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", b.Name, err)
		}
		reg.Register(b.Image)
		c.names = append(c.names, b.Name)
		c.reports = append(c.reports, rep)
		c.nextPID = append(c.nextPID, 1)
	}
	return c, nil
}

// fresh packs a never-seen archive of bug i.
func (c *corpus) fresh(i int) ([]byte, error) {
	rep := *c.reports[i]
	rep.PID = c.nextPID[i]
	c.nextPID[i]++
	return report.Pack(&rep)
}

// fleetOp is one upload of the seeded schedule.
type fleetOp struct {
	Bug  int
	Dup  bool // byte-identical to an earlier op's archive
	Node int  // coordinator the upload goes to
	ID   string
	blob []byte
}

// buildSchedule lays out n uploads. The seed permutes; it does not change
// the mix: fresh archives walk the bugs in shuffled rounds, so every bug
// is sent equally often, and three seeded positions of every ten ops are
// duplicates of a fresh archive sent at least ten ops earlier (the first
// ops have nothing to duplicate). A run's tail latency then depends
// on the code and not on how many long-window bugs the seed happened to
// draw.
func buildSchedule(c *corpus, n int, rng *rand.Rand) ([]fleetOp, error) {
	ops := make([]fleetOp, 0, n)
	var round []int
	var dupAt map[int]bool
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			dupAt = make(map[int]bool, dupsPerTen)
			for _, p := range rng.Perm(10)[:dupsPerTen] {
				dupAt[i+p] = true
			}
		}
		op := fleetOp{Node: i % fleetNodes}
		if src := pickEarlier(ops, i, rng); dupAt[i] && src >= 0 {
			op.Bug, op.Dup, op.ID, op.blob = ops[src].Bug, true, ops[src].ID, ops[src].blob
		} else {
			if len(round) == 0 {
				round = rng.Perm(len(c.reports))
			}
			op.Bug, round = round[0], round[1:]
			blob, err := c.fresh(op.Bug)
			if err != nil {
				return nil, fmt.Errorf("corpus: pack %s: %w", c.names[op.Bug], err)
			}
			op.ID, op.blob = report.ID(blob), blob
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// pickEarlier returns the index of the nearest fresh op at least ten to
// forty ops (drawn from the seed) before i, or -1 when i is among the first
// few. The rng is consumed either way, so a schedule is a pure function of
// (seed, n).
func pickEarlier(ops []fleetOp, i int, rng *rand.Rand) int {
	for j := i - 10 - rng.Intn(31); j >= 0; j-- {
		if !ops[j].Dup {
			return j
		}
	}
	return -1
}

// fleetSample is one upload's outcome.
type fleetSample struct {
	op        int
	dup       bool // the archive was sent before
	status    int
	err       error
	due       time.Time
	acked     time.Time
	lateMS    float64 // send start behind schedule
	ackMS     float64 // due time to response
	verdictMS float64 // due time to non-pending verdict on the coordinator; 0 = not observed
	span      int     // the traced op's own span, parent of its POST and its verdict wait; 0 = untraced
}

// fleetRun drives one cluster for one run.
type fleetRun struct {
	fleetOut
	f      *fixture
	sched  []fleetOp
	client *http.Client
	tr     *tracer
	next   int // first schedule op not yet sent
}

func newFleetRun(f *fixture, sched []fleetOp, tr *tracer) *fleetRun {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = senders()
	return &fleetRun{f: f, sched: sched, client: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

// senders is the number of goroutines (and so connections per node) that
// generate load: never more than the machine has processors, so the
// generator does not out-schedule the cluster it shares them with.
func senders() int { return min(runtime.NumCPU(), closedLoopClients) }

func (fr *fleetRun) post(op *fleetOp) (int, error) {
	url := fr.f.cluster.Nodes[op.Node].URL + "/api/v1/reports"
	resp, err := fr.client.Post(url, "application/octet-stream", bytes.NewReader(op.blob))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// verdictOf reads the coordinator's own view of a report, in-process.
func (fr *fleetRun) verdictOf(op *fleetOp) *triage.Verdict {
	m, ok := fr.f.cluster.Nodes[op.Node].Service.Report(op.ID)
	if !ok {
		return nil
	}
	return m.Verdict
}

// openLoop sends n ops at openLoopRate whatever the cluster does: op i is
// due at start + i/rate and is timed from then, so a stall is charged to
// every op it delays. A watcher polls each acked op's coordinator until
// its verdict leaves pending.
func (fr *fleetRun) openLoop(n int) []fleetSample {
	base := fr.next
	ops := fr.sched[base : base+n]
	fr.next += n
	samples := make([]fleetSample, n)
	interval := time.Duration(float64(time.Second) / openLoopRate)
	acked := make(chan int, n) // one slot per send: a sender never waits for the watcher

	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		var waiting []int
		var giveUp time.Time // set when the senders have finished
		for in := acked; in != nil || len(waiting) > 0; time.Sleep(pollQuantum) {
			for more := in != nil; more; {
				select {
				case i, ok := <-in:
					if ok {
						waiting = append(waiting, i)
					} else {
						in, more, giveUp = nil, false, time.Now().Add(30*time.Second)
					}
				default:
					more = false
				}
			}
			now := time.Now()
			keep := waiting[:0]
			for _, i := range waiting {
				sm := &samples[i]
				if v := fr.verdictOf(&ops[i]); v == nil || v.State == triage.VerdictPending {
					keep = append(keep, i)
					continue
				}
				sm.verdictMS = ms(now.Sub(sm.due))
				if sm.span != 0 {
					fr.tr.add(sm.span, sm.op+1, "triage", "ack to verdict", sm.acked, now)
					fr.tr.finish(sm.span, now)
				}
			}
			waiting = keep
			if in == nil && now.After(giveUp) {
				return // what is still waiting stays unobserved and fails verification
			}
		}
	}()

	var cursor atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				sm := &samples[i]
				sm.op, sm.dup, sm.due = base+i, ops[i].Dup, start.Add(time.Duration(i)*interval)
				// Odd ops carry spans in a traced run and even ops never
				// do: the pair gives the tracing overhead within one run.
				if i%2 == 1 {
					sm.span = fr.tr.begin(0, sm.op+1, "benchmark", "upload, due time to verdict", sm.due)
				}
				time.Sleep(time.Until(sm.due))
				sent := time.Now()
				sm.status, sm.err = fr.post(&ops[i])
				sm.acked = time.Now()
				sm.lateMS, sm.ackMS = ms(sent.Sub(sm.due)), ms(sm.acked.Sub(sm.due))
				if sm.span != 0 {
					fr.tr.add(sm.span, sm.op+1, "cluster", "POST /api/v1/reports", sent, sm.acked)
					fr.tr.finish(sm.span, sm.acked) // moved on to the verdict when the watcher sees it
				}
				if sm.err == nil && accepted(sm.status) {
					acked <- i
				}
			}
		}()
	}
	wg.Wait()
	close(acked)
	watcher.Wait()
	return samples
}

// closedLoop has closedLoopClients callers that each send their next
// upload when the previous one is acknowledged, until the time is up (or
// the d * closedLoopMaxRate uploads laid out for it are sent), then waits
// for every node's replay queue to drain. It returns the samples, the wall
// time including the drain, and the deepest replay queue it saw.
func (fr *fleetRun) closedLoop(d time.Duration) ([]fleetSample, time.Duration, int) {
	ops := fr.sched[fr.next : fr.next+closedLoopOps(d)]
	samples := make([]fleetSample, len(ops))
	var cursor atomic.Int64
	var depthMax atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < senders(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				sm := &samples[i]
				sm.op, sm.dup, sm.due = fr.next+i, ops[i].Dup, time.Now()
				sm.status, sm.err = fr.post(&ops[i])
				sm.ackMS = ms(time.Since(sm.due))
				if i%16 == 0 {
					for _, n := range fr.f.cluster.Nodes {
						if p := int64(n.Service.Pending()); p > depthMax.Load() {
							depthMax.Store(p)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	fr.drain()
	wall := time.Since(start)
	sent := min(int(cursor.Load()), len(ops))
	for sent > 0 && samples[sent-1].due.IsZero() {
		sent-- // a cursor slot claimed after the deadline was never sent
	}
	fr.next += sent
	return samples[:sent], wall, int(depthMax.Load())
}

// closedLoopOps is how many uploads of the schedule a closed loop of d may
// use: more than any cluster sends in that time.
func closedLoopOps(d time.Duration) int { return int(d.Seconds() * closedLoopMaxRate) }

func (fr *fleetRun) drain() {
	for _, n := range fr.f.cluster.Nodes {
		n.Service.WaitIdle()
	}
}

// fleetOut is the fleet stage's raw outcome, one entry per round. Fleet
// timings are wall time as measured: no probe can stand beside a cluster
// that keeps every processor busy without taking part in what it measures.
type fleetOut struct {
	warm       []fleetSample // the warm-up's uploads: verified, not measured
	open       [][]fleetSample
	closed     [][]fleetSample
	closedWall []time.Duration // sends plus drain
	depthMax   int             // deepest replay queue seen on any node during a closed loop
	// Registry snapshots around the measured rounds and around each closed
	// loop (queues drained at both ends).
	obs       [2]obsSnapshot
	closedObs [][2]obsSnapshot
}

// fleetPlan splits one fleet round's time: three fifths open loop, the
// rest closed loop (whose drain is part of what it measures).
func fleetPlan(round time.Duration) (openOps int, closedFor time.Duration) {
	open := round * 3 / 5
	return int(open.Seconds() * openLoopRate), round - open
}

// fleetOps is the length of the schedule a run with these rounds needs.
func fleetOps(openOps int, closedFor time.Duration) int {
	return closedLoopOps(fleetWarmUp) + multiRounds*(openOps+closedLoopOps(closedFor))
}

// warmUp keeps the freshly spawned cluster saturated for fleetWarmUp
// before anything is measured. A cluster that has stored nothing yet
// creates every directory and every file in untouched parts of the file
// system, and on the reference box its closed-loop rate climbs from half
// to the full figure over its first 1500 uploads; an operator's fleet is
// never in that state, so the ramp is kept out of the metrics.
func (fr *fleetRun) warmUp() {
	fr.warm, _, _ = fr.closedLoop(fleetWarmUp)
}

// round runs both phases once against the idle cluster.
func (fr *fleetRun) round(openOps int, closedFor time.Duration) {
	out := &fr.fleetOut
	if out.obs[0] == nil {
		out.obs[0] = snapshotObs()
	}
	out.open = append(out.open, fr.openLoop(openOps))
	fr.drain()
	before := snapshotObs()
	samples, wall, depth := fr.closedLoop(closedFor)
	out.obs[1] = snapshotObs()
	out.closed, out.closedWall = append(out.closed, samples), append(out.closedWall, wall)
	out.closedObs = append(out.closedObs, [2]obsSnapshot{before, out.obs[1]})
	out.depthMax = max(out.depthMax, depth)
}

// verifyAll checks every round's uploads once the last drain is over.
func (fr *fleetRun) verifyAll(res *result) {
	fr.verify(res, fr.warm, false)
	for _, samples := range fr.open {
		fr.verify(res, samples, true)
	}
	for _, samples := range fr.closed {
		fr.verify(res, samples, false)
	}
}

func accepted(status int) bool { return status == http.StatusOK || status == http.StatusCreated }

// verify checks every upload's HTTP status and, once the queues have
// drained, that every node holds a done, reproduced, matching verdict for
// every distinct archive sent.
func (fr *fleetRun) verify(res *result, samples []fleetSample, needVerdictTime bool) {
	for i := range samples {
		sm := &samples[i]
		op := &fr.sched[sm.op]
		ok := sm.err == nil && accepted(sm.status) && (!needVerdictTime || sm.verdictMS > 0)
		res.check(ok, "upload %d (%s) status %d err %v verdict seen %v",
			sm.op, fr.f.corpus.names[op.Bug], sm.status, sm.err, sm.verdictMS > 0)
		if op.Dup {
			continue // its archive is checked where it was first sent
		}
		for ni, n := range fr.f.cluster.Nodes {
			m, found := n.Service.Report(op.ID)
			v := m.Verdict
			res.check(found && v != nil && v.State == triage.VerdictDone && v.Reproduced && v.MatchesReported,
				"node %d verdict for upload %d (%s): %+v", ni, sm.op, fr.f.corpus.names[op.Bug], v)
		}
	}
}

// obsSnapshot is the process-wide metrics registry at one moment.
type obsSnapshot map[string]float64

func snapshotObs() obsSnapshot { return obs.Default.Snapshot() }

// since sums, over every series of a family whose labels contain label,
// the change from b to a.
func (a obsSnapshot) since(b obsSnapshot, family, label string) float64 {
	var d float64
	for k, v := range a {
		rest, ok := strings.CutPrefix(k, family)
		if ok && (rest == "" || rest[0] == '{') && strings.Contains(rest, label) {
			d += v - b[k]
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openLatencies returns the open loop's ack and verdict latencies from
// each op's due time and the generator's lateness, in ms.
func (o *fleetOut) openLatencies() (ack, verdict, late rounds) {
	for _, samples := range o.open {
		ack.next()
		verdict.next()
		late.next()
		for i := range samples {
			sm := &samples[i]
			if sm.err != nil || !accepted(sm.status) {
				continue
			}
			ack.add(sm.ackMS)
			late.add(sm.lateMS)
			if sm.verdictMS > 0 {
				verdict.add(sm.verdictMS)
			}
		}
	}
	return ack, verdict, late
}

// closedRates returns each closed loop's uploads per second of wall time,
// drain included.
func (o *fleetOut) closedRates() rounds {
	var v rounds
	for i, samples := range o.closed {
		v.next()
		v.add(float64(len(samples)) / o.closedWall[i].Seconds())
	}
	return v
}

// replayKinstrPerUpload is the guest instructions the cluster's nodes
// replayed over the measured rounds, in thousands per upload sent: what
// triage costs the fleet, whatever the host does. Every replica replays
// every never-seen archive; a duplicate costs nothing.
func (o *fleetOut) replayKinstrPerUpload() float64 {
	sent, _ := o.uploads()
	return ratio(o.obs[1].since(o.obs[0], "bugnet_triage_replay_instructions_total", ""), float64(sent)) / 1000
}

// uploads counts the measured rounds' uploads and those among them that
// carried a never-seen archive.
func (o *fleetOut) uploads() (sent, distinct int) {
	for _, part := range [][][]fleetSample{o.open, o.closed} {
		for _, samples := range part {
			for i := range samples {
				sent++
				if !samples[i].dup {
					distinct++
				}
			}
		}
	}
	return sent, distinct
}

func (o *fleetOut) closedOps() int {
	n := 0
	for _, samples := range o.closed {
		n += len(samples)
	}
	return n
}
