package cluster

import (
	"context"
	"encoding/json"
	"sync"

	"bugnet/internal/httpjson"
	"bugnet/internal/triage"
)

// Replay path. An archive is replicated to every owner and replayed by
// one of them (Node.replayer): the replica writes to the others carry its
// URL, and a marked owner stores the archive and waits. The verdict then
// travels twice over. The replayer pushes it (verdictPusher) — the fast
// path, best effort, never retried. Each waiting owner's anti-entropy
// sweep pulls it (sweepAwaited) and replays the archive itself when the
// replayer cannot say — the path correctness rests on.

// maxQueuedVerdicts bounds the push queue. A verdict dropped here is
// pulled by its followers' next sweep.
const maxQueuedVerdicts = 1024

// verdictPush is one done verdict on its way to the other owners.
type verdictPush struct {
	id        string
	requestID string
	verdict   *triage.Verdict
}

// verdictPusher carries finished verdicts from the replay workers to the
// other owners. offer never blocks — a replay worker must not wait on a
// peer — so the queue is bounded and overflow is dropped and counted.
type verdictPusher struct {
	n      *Node
	queue  chan verdictPush
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newVerdictPusher(n *Node) *verdictPusher {
	p := &verdictPusher{n: n, queue: make(chan verdictPush, maxQueuedVerdicts)}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.wg.Add(1)
	go p.run()
	return p
}

// close stops the pusher, abandoning what is queued or in flight.
func (p *verdictPusher) close() {
	p.cancel()
	p.wg.Wait()
}

// offer is the triage service's verdict hook.
func (p *verdictPusher) offer(id string, v *triage.Verdict, requestID string) {
	if p.n.replicas < 2 {
		return // nobody else holds the archive
	}
	select {
	case p.queue <- verdictPush{id: id, requestID: requestID, verdict: v}:
	default:
		mPushDropped.Inc()
	}
}

func (p *verdictPusher) run() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case push := <-p.queue:
			p.push(push)
		}
	}
}

// push sends one verdict to every other owner of its archive.
func (p *verdictPusher) push(push verdictPush) {
	body, err := json.Marshal(push.verdict)
	if err != nil {
		return
	}
	ctx := httpjson.WithRequestID(p.ctx, push.requestID)
	for _, o := range p.n.owners(push.id) {
		if o == p.n.self {
			continue
		}
		if err := p.n.client.putVerdict(ctx, o, push.id, body); err != nil {
			mPushErr.Inc()
		} else {
			mPushOK.Inc()
		}
	}
}

// sweepAwaited is the pull half: for every verdict this node has waited
// for longer than one sweep interval (the push normally lands well inside
// it, and the coordinator ingests its own copy only after the replica
// writes return), ask the replayer. A done verdict is adopted; the
// archive is replayed here instead when the replayer is unreachable or
// shed by its breaker, does not know the report, failed to replay it, or
// still has no verdict PeerTimeout after the wait began.
func (ae *antiEntropy) sweepAwaited() {
	n := ae.n
	for _, aw := range n.cfg.Service.Awaited() {
		select {
		case <-ae.done:
			return
		default:
		}
		age := ae.now().Sub(aw.Since)
		if age < ae.interval {
			continue
		}
		ctx := httpjson.WithRequestID(context.Background(), aw.RequestID)
		v := ae.pullVerdict(ctx, aw)
		switch {
		case v != nil && v.State == triage.VerdictDone:
			n.cfg.Service.AdoptVerdict(aw.ID, v)
		case v != nil && v.State == triage.VerdictPending && age <= n.client.timeout:
			// Still replaying there: keep waiting.
		default:
			if n.cfg.Service.ReplayDeferred(aw.ID) {
				mFallbackReplays.Inc()
			}
		}
	}
}

// pullVerdict reads aw's verdict from its replayer's local state; nil
// when the replayer cannot be asked or does not answer with one.
func (ae *antiEntropy) pullVerdict(ctx context.Context, aw triage.Awaited) *triage.Verdict {
	body, err := ae.n.client.getMeta(ctx, aw.Replayer, aw.ID)
	if err != nil {
		return nil
	}
	var meta triage.ReportMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		return nil
	}
	return meta.Verdict
}
