package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/triage"
)

// spawn brings up an in-process cluster and a corpus its nodes can replay.
func spawn(t *testing.T, n int, mutate func(*SpawnOptions)) (*LocalCluster, [][]byte) {
	t.Helper()
	reg := triage.NewImageRegistry()
	corpus, err := Corpus(8, reg)
	if err != nil {
		t.Fatal(err)
	}
	opt := SpawnOptions{
		BaseDir:       t.TempDir(),
		Resolver:      reg.Resolve,
		Replication:   3,
		WriteQuorum:   2,
		RetryInterval: time.Hour, // isolate read-repair unless a test opts in
		Workers:       1,
	}
	if mutate != nil {
		mutate(&opt)
	}
	lc, err := SpawnLocal(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, corpus
}

func blobID(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func post(t *testing.T, url string, blob []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/reports", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// eventually spins until cond holds, for state a background goroutine (a
// request handler, the anti-entropy sweeper) is on its way to.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func decodeEnvelope(t *testing.T, resp *http.Response) httpjson.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var env httpjson.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	return env.Error
}

func scrapeCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			total += int64(v)
		}
	}
	return total
}

// TestClusterQuorumWriteAndReadRepair is the flagship drill: ingest with
// one owner down succeeds at quorum, any node serves the read, and the
// returned owner heals itself on first read (observable via
// bugnet_cluster_repairs_total).
func TestClusterQuorumWriteAndReadRepair(t *testing.T) {
	checkGoroutineLeaks(t) // registered first: verified after the cluster closes
	lc, corpus := spawn(t, 3, nil)
	a, b, c := lc.Nodes[0], lc.Nodes[1], lc.Nodes[2]
	blob := corpus[0]
	id := blobID(blob)

	// Kill B, ingest to A: replication 3 over 3 nodes means every node
	// owns every report, so quorum 2 = A local + C forwarded.
	b.Stop()
	resp := post(t, a.URL, blob)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("quorum write with one node down: %s: %s", resp.Status, body)
	}
	var ing triage.IngestResult
	if err := json.Unmarshal(body, &ing); err != nil || ing.ID != id {
		t.Fatalf("ingest result %s (err %v), want id %s", body, err, id)
	}
	if !a.Service.Store().Has(id) || !c.Service.Store().Has(id) {
		t.Fatal("live owners do not both hold the blob")
	}
	if b.Service.Store().Has(id) {
		t.Fatal("stopped node somehow received the blob")
	}

	// Any node serves the read; C proxies nothing (it holds a replica).
	getResp, err := http.Get(c.URL + "/api/v1/reports/" + id + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(raw, blob) {
		t.Fatalf("read via C: %s, %d bytes", getResp.Status, len(raw))
	}

	// B returns and serves a read of the report it missed: read-repair
	// pulls the blob from a live owner before answering.
	if err := b.Restart(); err != nil {
		t.Fatal(err)
	}
	before := scrapeCounter(t, a.URL, "bugnet_cluster_repairs_total")
	getResp, err = http.Get(b.URL + "/api/v1/reports/" + id + "?raw=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(raw, blob) {
		t.Fatalf("read via restarted B: %s, %d bytes", getResp.Status, len(raw))
	}
	if !b.Service.Store().Has(id) {
		t.Fatal("read-repair did not restore B's replica")
	}
	after := scrapeCounter(t, a.URL, "bugnet_cluster_repairs_total")
	if after <= before {
		t.Fatalf("bugnet_cluster_repairs_total did not advance (%d -> %d)", before, after)
	}
}

// TestClusterQuorumFailure: with two of three owners down, the write
// must be refused with the stable replica_unavailable code — a quorum
// failure is the client's signal to retry, not a silent single-copy ack.
func TestClusterQuorumFailure(t *testing.T) {
	lc, corpus := spawn(t, 3, nil)
	lc.Nodes[1].Stop()
	lc.Nodes[2].Stop()
	resp := post(t, lc.Nodes[0].URL, corpus[1])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write without quorum: %s", resp.Status)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != httpjson.CodeReplicaUnavailable {
		t.Fatalf("error code = %q, want %q", e.Code, httpjson.CodeReplicaUnavailable)
	}
	// The refused write must not leave a phantom single copy visible.
	if lc.Nodes[0].Service.Store().Has(blobID(corpus[1])) {
		// A local copy may exist (the coordinator ingested before counting
		// acks) — but then the ack count would have met quorum; with W=2
		// and both peers down, acks=1, so the blob should not be adopted...
		// unless this node was an owner and local adoption succeeded. With
		// replication 3 on 3 nodes, it is — the copy is allowed, the 503
		// is the contract. Nothing to assert beyond the status.
		t.Log("coordinator kept its local replica after quorum failure (allowed)")
	}
}

// TestClusterAntiEntropy: an owner that was down during a quorum write
// receives its replica in the background once it returns, without any
// read touching it.
func TestClusterAntiEntropy(t *testing.T) {
	lc, corpus := spawn(t, 3, func(o *SpawnOptions) {
		o.RetryInterval = 50 * time.Millisecond
	})
	a, b := lc.Nodes[0], lc.Nodes[1]
	blob := corpus[2]
	id := blobID(blob)

	b.Stop()
	resp := post(t, a.URL, blob)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("quorum write: %s", resp.Status)
	}
	if err := b.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !b.Service.Store().Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy did not restore B's replica within 10s")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterHintedHandoff: when the coordinator is not an owner and an
// owner is down, the spooled blob is parked as a hint and delivered when
// the owner returns.
func TestClusterHintedHandoff(t *testing.T) {
	lc, corpus := spawn(t, 4, func(o *SpawnOptions) {
		o.Replication = 2
		o.WriteQuorum = 1
		o.RetryInterval = 50 * time.Millisecond
	})
	coordinator := lc.Nodes[0]
	ring := coordinator.Node.Ring()

	// Find a corpus blob the coordinator does not own.
	var blob []byte
	var id string
	var owners []string
	for _, b := range corpus {
		cand := blobID(b)
		own := ring.Owners(cand, 2)
		if own[0] != coordinator.URL && own[1] != coordinator.URL {
			blob, id, owners = b, cand, own
			break
		}
	}
	if blob == nil {
		t.Skip("corpus has no blob foreign to the coordinator (unlikely)")
	}
	byURL := map[string]*LocalNode{}
	for _, n := range lc.Nodes {
		byURL[n.URL] = n
	}
	down := byURL[owners[1]]
	down.Stop()

	resp := post(t, coordinator.URL, blob)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("W=1 write with one owner down: %s", resp.Status)
	}
	if !byURL[owners[0]].Service.Store().Has(id) {
		t.Fatal("live owner did not receive the blob")
	}
	if coordinator.Service.Store().Has(id) {
		t.Fatal("non-owner coordinator adopted the blob locally")
	}

	if err := down.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !down.Service.Store().Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("hinted handoff did not reach the returned owner within 10s")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterAdmissionHTTP drives admission control over the wire: at
// the byte budget the node sheds with 429 + Retry-After, and accepts
// again once the inflight upload drains.
func TestClusterAdmissionHTTP(t *testing.T) {
	lc, corpus := spawn(t, 1, func(o *SpawnOptions) {
		o.Replication = 1
		o.WriteQuorum = 1
		o.MaxSpoolBytes = DefaultReservation + DefaultReservation/2 // room for one chunked upload
		o.RetryAfter = 3 * time.Second
	})
	node := lc.Nodes[0]
	blob := corpus[3]

	// Hold one chunked upload open: it reserves DefaultReservation.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, node.URL+"/api/v1/reports", pr)
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, nil}
	}()
	if _, err := pw.Write(blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	// The write returning means the client transport took the bytes, not
	// that the handler ran: wait for the reservation itself.
	eventually(t, "the held upload to reserve its admission budget", func() bool {
		reserved, _ := node.Node.admission.Occupancy()
		return reserved == DefaultReservation
	})

	// A second chunked upload would reserve another DefaultReservation —
	// over budget, shed.
	req, _ := http.NewRequest(http.MethodPost, node.URL+"/api/v1/reports", io.NopCloser(bytes.NewReader(corpus[4])))
	req.ContentLength = -1 // force chunked
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("upload at byte budget: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != httpjson.CodeOverloaded {
		t.Fatalf("shed error code = %q, want %q", e.Code, httpjson.CodeOverloaded)
	}

	// Finish the held upload; the budget drains.
	if _, err := pw.Write(blob[len(blob)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	r := <-done
	if r.err != nil || r.status != http.StatusCreated {
		t.Fatalf("held upload finished with %d, %v", r.status, r.err)
	}

	// The previously shed upload is now admitted.
	resp = post(t, node.URL, corpus[4])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload after drain: %s, want 201", resp.Status)
	}
}

// TestClusterReplicaHashVerification: a replica PUT whose bytes do not
// hash to the claimed id is refused — peers cannot launder corrupt blobs
// into each other's stores.
func TestClusterReplicaHashVerification(t *testing.T) {
	lc, corpus := spawn(t, 1, func(o *SpawnOptions) {
		o.Replication = 1
		o.WriteQuorum = 1
	})
	node := lc.Nodes[0]
	wrongID := blobID([]byte("something else"))
	req, _ := http.NewRequest(http.MethodPut,
		node.URL+"/internal/v1/replicas/"+wrongID, bytes.NewReader(corpus[5]))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hash-mismatched replica PUT: %s, want 400", resp.Status)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != httpjson.CodeBadRequest {
		t.Fatalf("error code = %q, want %q", e.Code, httpjson.CodeBadRequest)
	}
	if node.Service.Store().Has(wrongID) {
		t.Fatal("mismatched blob was stored")
	}
}

// TestClusterInfoEndpoint: /api/v1/cluster reports membership with
// per-node health.
func TestClusterInfoEndpoint(t *testing.T) {
	lc, _ := spawn(t, 3, nil)
	lc.Nodes[2].Stop()

	resp, err := http.Get(lc.Nodes[0].URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var info ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Self != lc.Nodes[0].URL || info.ReplicationFactor != 3 || info.WriteQuorum != 2 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("%d nodes in view", len(info.Nodes))
	}
	healthy := 0
	for _, nh := range info.Nodes {
		if nh.Healthy {
			healthy++
		} else if nh.Error == "" {
			t.Fatalf("unhealthy node %s has no error", nh.Node)
		}
	}
	if healthy != 2 {
		t.Fatalf("%d healthy nodes, want 2 (one stopped)", healthy)
	}
}

// TestClusterNotFoundDoesNotLoop: a read of an id nobody holds answers a
// clean 404 envelope from any node — the proxy fans out one hop only.
func TestClusterNotFoundDoesNotLoop(t *testing.T) {
	lc, _ := spawn(t, 3, nil)
	ghost := fmt.Sprintf("%064x", 0xdead)
	for _, n := range lc.Nodes {
		resp, err := http.Get(n.URL + "/api/v1/reports/" + ghost)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("ghost read via %s: %s", n.URL, resp.Status)
		}
		e := decodeEnvelope(t, resp)
		if e.Code != httpjson.CodeNotFound {
			t.Fatalf("error code = %q", e.Code)
		}
	}
}

// TestClusterEveryNodeCoordinates: the same blob posted to each node
// lands once (one 201, the rest 200 duplicate) wherever it enters.
func TestClusterEveryNodeCoordinates(t *testing.T) {
	lc, corpus := spawn(t, 3, nil)
	blob := corpus[6]
	created := 0
	for _, n := range lc.Nodes {
		resp := post(t, n.URL, blob)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("POST via %s: %s", n.URL, resp.Status)
		}
	}
	if created != 1 {
		t.Fatalf("%d nodes created the same blob, want exactly 1", created)
	}
	id := blobID(blob)
	for _, n := range lc.Nodes {
		if !n.Service.Store().Has(id) {
			t.Fatalf("node %s missing its replica", n.URL)
		}
	}
}
