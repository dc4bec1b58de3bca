package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
	"bugnet/internal/faultinject"
	"bugnet/internal/httpjson"
	"bugnet/internal/obs"
	"bugnet/internal/triage"
)

// gate holds every node's replays at the binary lookup until opened, so a
// test decides what happens between "the archive is stored everywhere"
// and "its replayer has a verdict".
type gate struct {
	once sync.Once
	ch   chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

func (g *gate) hold(o *SpawnOptions) {
	inner := o.Resolver
	o.Resolver = func(id core.BinaryID) (*asm.Image, error) {
		<-g.ch
		return inner(id)
	}
}

// mustPost uploads blob through url (with an optional request id) and
// fails the test unless it is acked.
func mustPost(t *testing.T, url string, blob []byte, requestID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/reports", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload via %s: %s", url, resp.Status)
	}
	return resp
}

// counter reads the process-wide registry the in-process nodes share.
func counter(name string) float64 { return obs.Default.Snapshot()[name] }

const (
	cInstr    = "bugnet_triage_replay_instructions_total"
	cDone     = `bugnet_triage_verdicts_total{state="done"}`
	cAdopted  = "bugnet_triage_verdicts_adopted_total"
	cFallback = "bugnet_cluster_verdict_fallback_replays_total"
	cPushOK   = `bugnet_cluster_verdict_push_total{result="ok"}`
	cPushErr  = `bugnet_cluster_verdict_push_total{result="error"}`
	cPushDrop = `bugnet_cluster_verdict_push_total{result="dropped"}`
)

// after moves a node's wait clock d past the real one, so a sweep called
// by hand sees waits of that age.
func (ae *antiEntropy) after(d time.Duration) {
	ae.now = func() time.Time { return time.Now().Add(d) }
}

// TestReplayOnce is the tentpole's contract on a healthy cluster: every
// archive is stored three times and replayed once, whichever node
// coordinates and however often the same bytes come back, and every node
// ends with the same verdict.
func TestReplayOnce(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, corpus := spawn(t, 3, nil) // RetryInterval an hour: the push alone must do it
	for _, n := range lc.Nodes {
		n.Service.WaitIdle()
	}
	instr, done, adopted, fallback := counter(cInstr), counter(cDone), counter(cAdopted), counter(cFallback)

	for i, blob := range corpus {
		mustPost(t, lc.Nodes[i%3].URL, blob, "")
	}
	// Byte-identical duplicates through the other two coordinators, sent
	// while the first copy's verdict may still be on its way.
	for i, blob := range corpus {
		if resp := mustPost(t, lc.Nodes[(i+1)%3].URL, blob, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("duplicate %d: %s, want 200", i, resp.Status)
		}
		mustPost(t, lc.Nodes[(i+2)%3].URL, blob, "")
	}
	for _, n := range lc.Nodes {
		n.Service.WaitIdle()
	}

	var want float64
	for i, blob := range corpus {
		id := blobID(blob)
		first, ok := lc.Nodes[0].Service.Report(id)
		if !ok || first.Verdict == nil || first.Verdict.State != triage.VerdictDone || !first.Verdict.Reproduced {
			t.Fatalf("archive %d on node 0: %+v", i, first.Verdict)
		}
		want += float64(first.Verdict.Instructions)
		for ni, n := range lc.Nodes {
			m, ok := n.Service.Report(id)
			if !ok || !reflect.DeepEqual(m.Verdict, first.Verdict) {
				t.Fatalf("archive %d: node %d holds %+v, node 0 holds %+v", i, ni, m.Verdict, first.Verdict)
			}
			if !n.Service.Store().Has(id) {
				t.Fatalf("archive %d is not stored on node %d", i, ni)
			}
			if b, ok := n.Service.Bucket(m.BucketKey); !ok || b.Verdict == nil || b.Verdict.State != triage.VerdictDone || b.Count < 3 {
				t.Fatalf("archive %d: node %d bucket = %+v", i, ni, b)
			}
		}
	}
	n := float64(len(corpus))
	if got := counter(cInstr) - instr; got != want {
		t.Errorf("replayed %v instructions for verdicts worth %v: amplification %.2f, want exactly 1", got, want, got/want)
	}
	if got := counter(cDone) - done; got != n {
		t.Errorf("verdicts_total{done} moved by %v, want %v (one replay an archive)", got, n)
	}
	if got := counter(cAdopted) - adopted; got != 2*n {
		t.Errorf("verdicts_adopted_total moved by %v, want %v", got, 2*n)
	}
	if got := counter(cFallback) - fallback; got != 0 {
		t.Errorf("%v fallback replays on a healthy cluster", got)
	}
}

// TestRequestIDCrossesPeerHops: one upload is one id — on the replica
// writes, in the followers' waits, on the replay job, and in the log lines
// of the node that replayed and the nodes that adopted.
func TestRequestIDCrossesPeerHops(t *testing.T) {
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	prev := obs.Logger()
	obs.SetLogger(slog.New(slog.NewJSONHandler(lockedWriter{&logMu, &logBuf}, nil)))
	t.Cleanup(func() { obs.SetLogger(prev) })

	g := newGate()
	lc, corpus := spawn(t, 3, g.hold)
	t.Cleanup(g.open) // after spawn's: runs first, so closing workers are not held
	id := blobID(corpus[0])

	resp := mustPost(t, lc.Nodes[0].URL, corpus[0], "t-1")
	if got := resp.Header.Get("X-Request-ID"); got != "t-1" {
		t.Fatalf("response X-Request-ID = %q", got)
	}
	// The replayer is held at the gate, so the followers are still waiting:
	// what their replica handlers saw is on the wait.
	for _, n := range lc.Nodes[1:] {
		aw := n.Service.Awaited()
		if len(aw) != 1 || aw[0].ID != id || aw[0].RequestID != "t-1" || aw[0].Replayer != lc.Nodes[0].URL {
			t.Fatalf("%s awaits %+v, want %s from %s under request id t-1", n.URL, aw, id, lc.Nodes[0].URL)
		}
	}
	if aw := lc.Nodes[0].Service.Awaited(); len(aw) != 0 {
		t.Fatalf("the replayer awaits %+v", aw)
	}
	g.open()
	for _, n := range lc.Nodes {
		n.Service.WaitIdle()
	}

	// The lines are written after the verdict is on the books, so WaitIdle
	// does not order them.
	var lines map[string]int
	eventually(t, "one verdict done and two verdict adopted lines under request id t-1", func() bool {
		logMu.Lock()
		defer logMu.Unlock()
		lines = map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			var rec struct {
				Msg       string `json:"msg"`
				Report    string `json:"report"`
				RequestID string `json:"request_id"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Report == id {
				lines[rec.Msg+" "+rec.RequestID]++
			}
		}
		return lines["verdict done t-1"] == 1 && lines["verdict adopted t-1"] == 2
	})
	if len(lines) != 2 {
		t.Fatalf("log lines for %s: %v", id, lines)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestVerdictSweep drives the pull half by hand: a follower's sweep adopts
// what the replayer has, keeps waiting while the replayer may still be at
// it, and replays the archive itself for every reason the wait can fail.
func TestVerdictSweep(t *testing.T) {
	spawnGated := func(t *testing.T, plane *faultinject.Plane) (*LocalCluster, [][]byte, *gate) {
		g := newGate()
		lc, corpus := spawn(t, 3, func(o *SpawnOptions) {
			g.hold(o)
			o.FaultPlane = plane
			o.PeerTimeout = 3 * time.Hour // against a RetryInterval of one
		})
		t.Cleanup(g.open) // after spawn's: runs first, so closing workers are not held
		return lc, corpus, g
	}
	awaits := func(n *LocalNode, id string) bool {
		_, ok := n.Service.Awaiting(id)
		return ok
	}

	t.Run("young waits are left to the push", func(t *testing.T) {
		lc, corpus, _ := spawnGated(t, nil)
		a, b := lc.Nodes[0], lc.Nodes[1]
		mustPost(t, a.URL, corpus[0], "")
		a.Stop() // unreachable, were anyone to ask
		fallback := counter(cFallback)
		b.Node.ae.sweep()
		if !awaits(b, blobID(corpus[0])) || counter(cFallback) != fallback {
			t.Fatal("a wait younger than one sweep interval was given up")
		}
	})

	t.Run("pending within PeerTimeout waits, past it replays here", func(t *testing.T) {
		lc, corpus, g := spawnGated(t, nil)
		a, b := lc.Nodes[0], lc.Nodes[1]
		id := blobID(corpus[0])
		mustPost(t, a.URL, corpus[0], "")
		fallback := counter(cFallback)

		b.Node.ae.after(2 * time.Hour)
		b.Node.ae.sweep()
		if !awaits(b, id) || counter(cFallback) != fallback {
			t.Fatal("gave up on a replayer that is still inside PeerTimeout")
		}
		b.Node.ae.after(4 * time.Hour)
		b.Node.ae.sweep()
		if awaits(b, id) || counter(cFallback)-fallback != 1 {
			t.Fatalf("still pending past PeerTimeout: awaited %v, fallback replays %v", awaits(b, id), counter(cFallback)-fallback)
		}
		g.open()
		b.Service.WaitIdle()
		if m, _ := b.Service.Report(id); m.Verdict == nil || m.Verdict.State != triage.VerdictDone {
			t.Fatalf("fallback verdict = %+v", m.Verdict)
		}
	})

	t.Run("partitioned replayer: replay here, then agree", func(t *testing.T) {
		plane := faultinject.NewPlane(1)
		lc, corpus, g := spawnGated(t, plane)
		a, b := lc.Nodes[0], lc.Nodes[1]
		id := blobID(corpus[0])
		mustPost(t, a.URL, corpus[0], "")
		plane.Partition(a.URL, b.URL)
		instr, fallback, pushErr := counter(cInstr), counter(cFallback), counter(cPushErr)

		b.Node.ae.after(2 * time.Hour)
		b.Node.ae.sweep()
		if awaits(b, id) || counter(cFallback)-fallback != 1 {
			t.Fatalf("unreachable replayer: awaited %v, fallback replays %v", awaits(b, id), counter(cFallback)-fallback)
		}
		g.open()
		a.Service.WaitIdle()
		b.Service.WaitIdle()
		lc.Nodes[2].Service.WaitIdle() // adopts from whichever of the two pushes first
		ma, _ := a.Service.Report(id)
		mb, _ := b.Service.Report(id)
		if ma.Verdict.State != triage.VerdictDone || !reflect.DeepEqual(ma.Verdict, mb.Verdict) {
			t.Fatalf("replayer holds %+v, fallback replayer holds %+v", ma.Verdict, mb.Verdict)
		}
		if got, want := counter(cInstr)-instr, 2*float64(ma.Verdict.Instructions); got != want {
			t.Errorf("replayed %v instructions, want %v (the replayer and the one fallback)", got, want)
		}
		eventually(t, "both replayers' pushes across the partition to fail", func() bool {
			return counter(cPushErr)-pushErr == 2
		})
	})

	t.Run("stopped replayer", func(t *testing.T) {
		lc, corpus, _ := spawnGated(t, nil)
		a, b := lc.Nodes[0], lc.Nodes[1]
		mustPost(t, a.URL, corpus[0], "")
		a.Stop()
		fallback := counter(cFallback)
		b.Node.ae.after(2 * time.Hour)
		b.Node.ae.sweep()
		if awaits(b, blobID(corpus[0])) || counter(cFallback)-fallback != 1 {
			t.Fatal("a stopped replayer was waited for")
		}
	})

	t.Run("replayer answers 404", func(t *testing.T) {
		lc, corpus, g := spawnGated(t, nil)
		b, c := lc.Nodes[1], lc.Nodes[2]
		blob, id := corpus[0], blobID(corpus[0])
		// A replica write that names C as the replayer; C never got the archive.
		req, _ := http.NewRequest(http.MethodPut, b.URL+"/internal/v1/replicas/"+id, bytes.NewReader(blob))
		req.Header.Set(replayerHeader, c.URL)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if r, _ := b.Service.Awaiting(id); resp.StatusCode != http.StatusCreated || r != c.URL {
			t.Fatalf("marked replica write: %s, awaiting %q", resp.Status, r)
		}
		fallback := counter(cFallback)
		b.Node.ae.after(2 * time.Hour)
		b.Node.ae.sweep()
		if awaits(b, id) || counter(cFallback)-fallback != 1 {
			t.Fatal("a replayer that does not know the report was waited for")
		}
		g.open()
		b.Service.WaitIdle()
	})

	t.Run("verdict the push lost is pulled", func(t *testing.T) {
		plane := faultinject.NewPlane(1)
		lc, corpus, g := spawnGated(t, plane)
		a, b := lc.Nodes[0], lc.Nodes[1]
		id := blobID(corpus[0])
		mustPost(t, a.URL, corpus[0], "")
		plane.Partition(a.URL, b.URL)
		pushErr := counter(cPushErr)
		g.open()
		a.Service.WaitIdle()
		eventually(t, "the push to the partitioned follower to fail", func() bool { return counter(cPushErr)-pushErr == 1 })
		if !awaits(b, id) {
			t.Fatal("follower got a verdict across a partition")
		}
		plane.HealPartition(a.URL, b.URL)
		lc.Nodes[2].Service.WaitIdle() // the follower the push did reach
		instr, adopted, fallback := counter(cInstr), counter(cAdopted), counter(cFallback)
		b.Node.ae.after(2 * time.Hour)
		b.Node.ae.sweep()
		ma, _ := a.Service.Report(id)
		mb, _ := b.Service.Report(id)
		if awaits(b, id) || !reflect.DeepEqual(ma.Verdict, mb.Verdict) || mb.Verdict.State != triage.VerdictDone {
			t.Fatalf("after the pull: awaited %v, follower holds %+v, replayer %+v", awaits(b, id), mb.Verdict, ma.Verdict)
		}
		if counter(cAdopted)-adopted != 1 || counter(cFallback) != fallback || counter(cInstr) != instr {
			t.Fatalf("pull: adopted %v, fallback %v, instructions %v", counter(cAdopted)-adopted, counter(cFallback)-fallback, counter(cInstr)-instr)
		}
	})

	t.Run("unmarked and foreign marks replay here", func(t *testing.T) {
		lc, corpus, _ := spawnGated(t, nil)
		b := lc.Nodes[1]
		for i, mark := range []string{"", b.URL, "http://not-a-member:1"} {
			blob := corpus[i]
			req, _ := http.NewRequest(http.MethodPut, b.URL+"/internal/v1/replicas/"+blobID(blob), bytes.NewReader(blob))
			if mark != "" {
				req.Header.Set(replayerHeader, mark)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if awaits(b, blobID(blob)) {
				t.Errorf("replica write marked %q left the owner waiting", mark)
			}
		}
		if b.Service.Pending() != 3 {
			t.Fatalf("Pending() = %d, want the three replays queued", b.Service.Pending())
		}
	})
}

// TestFollowerRestartedWhileAwaiting: the awaited set is memory. A
// follower that restarts while it waits finds the archive in its store
// with no cached verdict, and its recovery pass replays it.
func TestFollowerRestartedWhileAwaiting(t *testing.T) {
	g := newGate()
	var opt SpawnOptions
	lc, corpus := spawn(t, 3, func(o *SpawnOptions) {
		g.hold(o)
		opt = *o
	})
	t.Cleanup(g.open) // after spawn's: runs first, so closing workers are not held
	a, b := lc.Nodes[0], lc.Nodes[1]
	id := blobID(corpus[0])
	mustPost(t, a.URL, corpus[0], "")
	if _, ok := b.Service.Awaiting(id); !ok {
		t.Fatal("follower is not waiting")
	}
	b.Close()

	g.open()
	svc, err := triage.New(triage.Config{Dir: filepath.Join(opt.BaseDir, "node1"), Workers: 1, Resolver: opt.Resolver})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.WaitIdle()
	a.Service.WaitIdle()
	m, ok := svc.Report(id)
	ma, _ := a.Service.Report(id)
	if !ok || m.Verdict.State != triage.VerdictDone || !reflect.DeepEqual(m.Verdict, ma.Verdict) {
		t.Fatalf("restarted follower holds %+v (found %v), replayer %+v", m.Verdict, ok, ma.Verdict)
	}
	if aw := svc.Awaited(); len(aw) != 0 || svc.Pending() != 0 {
		t.Fatalf("restarted follower still waits: %+v, pending %d", aw, svc.Pending())
	}
}

// TestVerdictPushEndpoint: the one new route takes a bounded, well-formed,
// done verdict for a well-formed id, under /internal/v1 only.
func TestVerdictPushEndpoint(t *testing.T) {
	lc, corpus := spawn(t, 1, func(o *SpawnOptions) { o.Replication, o.WriteQuorum = 1, 1 })
	n := lc.Nodes[0]
	id := blobID(corpus[0])
	put := func(path, body string) int {
		req, _ := http.NewRequest(http.MethodPut, n.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 && resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			decodeEnvelope(t, resp) // refusals speak the error envelope
		}
		return resp.StatusCode
	}
	done := `{"state":"done","reproduced":true,"matches_reported":true,"instructions":5}`
	route := "/internal/v1/verdicts/"
	for name, tc := range map[string]struct {
		path, body string
		want       int
	}{
		"done verdict":        {route + id, done, http.StatusNoContent},
		"oversized":           {route + id, `{"state":"done","error":"` + strings.Repeat("x", maxVerdictBytes) + `"}`, http.StatusRequestEntityTooLarge},
		"unknown fields only": {route + id, `{"verdict":"done","ok":true}`, http.StatusBadRequest},
		"one unknown field":   {route + id, `{"state":"done","extra":1}`, http.StatusBadRequest},
		"not json":            {route + id, `done`, http.StatusBadRequest},
		"trailing junk":       {route + id, done + done, http.StatusBadRequest},
		"empty object":        {route + id, `{}`, http.StatusBadRequest},
		"pending":             {route + id, `{"state":"pending"}`, http.StatusBadRequest},
		"failed":              {route + id, `{"state":"failed","error":"no registered binary"}`, http.StatusBadRequest},
		"short id":            {route + id[:40], done, http.StatusBadRequest},
		"upper-case id":       {route + strings.ToUpper(id), done, http.StatusBadRequest},
		"public prefix":       {"/api/v1/verdicts/" + id, done, http.StatusNotFound},
		"no prefix":           {"/verdicts/" + id, done, http.StatusNotFound},
	} {
		if got := put(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: PUT %s = %d, want %d", name, tc.path, got, tc.want)
		}
	}
	// The accepted verdict beat its archive and sits in the cache: when the
	// archive comes, no replay is needed. (Marked with the node's own URL,
	// which is nobody to wait for, the write queues a replay job; the
	// worker finds the verdict.)
	instr := counter(cInstr)
	req, _ := http.NewRequest(http.MethodPut, n.URL+"/internal/v1/replicas/"+id, bytes.NewReader(corpus[0]))
	req.Header.Set(replayerHeader, n.URL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	n.Service.WaitIdle()
	m, _ := n.Service.Report(id)
	if m.Verdict == nil || m.Verdict.Instructions != 5 || counter(cInstr) != instr {
		t.Fatalf("cached verdict not used: %+v, %v instructions replayed", m.Verdict, counter(cInstr)-instr)
	}
}

// TestLoneSurvivorNeverWaitsOnPeers: with every other node gone, each
// verdict's push fails or is dropped, and none of that is the replay
// worker's business — WaitIdle returns when the replays are done.
func TestLoneSurvivorNeverWaitsOnPeers(t *testing.T) {
	checkGoroutineLeaks(t)
	lc, corpus := spawn(t, 3, func(o *SpawnOptions) { o.WriteQuorum = 1 })
	a := lc.Nodes[0]
	lc.Nodes[1].Stop()
	lc.Nodes[2].Stop()
	pushed := func() float64 { return counter(cPushErr) + counter(cPushDrop) }
	before, ok := pushed(), counter(cPushOK)
	for _, blob := range corpus {
		mustPost(t, a.URL, blob, "")
	}
	a.Service.WaitIdle()
	for _, blob := range corpus {
		if m, _ := a.Service.Report(blobID(blob)); m.Verdict == nil || m.Verdict.State != triage.VerdictDone {
			t.Fatalf("survivor's verdict = %+v", m.Verdict)
		}
	}
	want := float64(2 * len(corpus))
	eventually(t, "every push to a dead peer to fail or be dropped", func() bool { return pushed()-before == want })
	if counter(cPushOK) != ok {
		t.Fatal("a push to a stopped node succeeded")
	}
}

// TestPushQueueDropsWhenFull: offer is the worker's side of the queue and
// must return at once whatever the pusher is doing.
func TestPushQueueDropsWhenFull(t *testing.T) {
	lc, _ := spawn(t, 3, nil)
	p := lc.Nodes[0].Node.pusher
	p.close() // nobody drains the queue any more
	dropped := counter(cPushDrop)
	v := &triage.Verdict{State: triage.VerdictDone}
	for i := 0; i < maxQueuedVerdicts+5; i++ {
		p.offer(strings.Repeat("0", 64), v, "")
	}
	if got := counter(cPushDrop) - dropped; got != 5 {
		t.Fatalf("dropped %v of %d offers to a queue of %d", got, maxQueuedVerdicts+5, maxQueuedVerdicts)
	}
}

// TestPeerRequestCarriesRequestID covers the one builder every peer call
// goes through: each of them hands the id in its context to the peer.
func TestPeerRequestCarriesRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Get("X-Request-ID")
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, "/internal/v1/verdicts/") {
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer peer.Close()
	c := newPeerClient(time.Second, nil, nil)
	defer c.closeIdle()

	ctx := httpjson.WithRequestID(context.Background(), "t-9")
	c.putReplica(ctx, peer.URL, "r", strings.NewReader("x"), 1, "")
	if rc, _, err := c.getReplica(ctx, peer.URL, "r"); err == nil {
		rc.Close()
	}
	c.hasReplica(ctx, peer.URL, "r")
	c.getMeta(ctx, peer.URL, "r")
	c.putVerdict(ctx, peer.URL, "r", []byte("{}"))
	c.health(ctx, peer.URL)
	for _, call := range []string{
		"PUT /internal/v1/replicas/r", "GET /internal/v1/replicas/r", "HEAD /internal/v1/replicas/r",
		"GET /internal/v1/reports/r", "PUT /internal/v1/verdicts/r", "GET /healthz",
	} {
		if got, ok := seen[call]; !ok || got != "t-9" {
			t.Errorf("%s carried request id %q (seen %v)", call, got, ok)
		}
	}

	req, err := newPeerRequest(context.Background(), http.MethodGet, peer.URL+"/", "/healthz", nil)
	if err != nil || req.Header.Get("X-Request-ID") != "" || req.URL.String() != peer.URL+"/healthz" {
		t.Fatalf("request outside any upload: %v %v %v", req.URL, req.Header, err)
	}
}
