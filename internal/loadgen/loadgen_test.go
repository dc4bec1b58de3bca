package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/triage"
)

func TestCorpusDistinct(t *testing.T) {
	reg := triage.NewImageRegistry()
	blobs, err := cluster.Corpus(5, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 5 {
		t.Fatalf("corpus size %d", len(blobs))
	}
	seen := map[string]bool{}
	for i, b := range blobs {
		if seen[string(b)] {
			t.Fatalf("corpus blob %d duplicates an earlier one", i)
		}
		seen[string(b)] = true
	}
	if reg.Len() != 5 {
		t.Fatalf("registry has %d images, want 5", reg.Len())
	}
}

// TestRunAgainstLocalCluster drives a short real run through the full
// coordinator path and checks the bookkeeping adds up.
func TestRunAgainstLocalCluster(t *testing.T) {
	reg := triage.NewImageRegistry()
	corpus, err := cluster.Corpus(4, reg)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cluster.SpawnLocal(2, cluster.SpawnOptions{
		BaseDir:     t.TempDir(),
		Resolver:    reg.Resolve,
		Replication: 2,
		WriteQuorum: 1,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	res, err := Run(context.Background(), Options{
		Targets:       lc.URLs(),
		ScrapeTargets: lc.URLs()[:1], // shared in-process metrics registry
		Corpus:        corpus,
		RPS:           200,
		Concurrency:   4,
		Duration:      500 * time.Millisecond,
		DrainTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if res.Errors5xx != 0 || res.TransportErrors != 0 {
		t.Fatalf("errors during clean run: %+v", res)
	}
	if res.Created+res.Duplicate+res.Shed+res.Errors4xx+res.Cancelled != res.Sent {
		t.Fatalf("accounting does not add up: %+v", res)
	}
	// 4 distinct archives: the first sends create, the rest dedupe.
	if res.Created == 0 || res.Duplicate == 0 {
		t.Fatalf("expected both creates and duplicates: %+v", res)
	}
	// Each archive is replayed by one of its two owners and adopted by the
	// other, however many times it was sent.
	if n := int64(len(corpus)); res.Verdicts <= 0 || res.Verdicts > n || res.Adopted <= 0 || res.Adopted > n {
		t.Fatalf("verdicts=%d adopted=%d for %d distinct archives on 2 owners", res.Verdicts, res.Adopted, n)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v", res.P50, res.P99)
	}
}

// TestRunLocalDrainsEveryNode: an in-process run returns only once no
// node owes a verdict, replayed or awaited from a peer, so every acked
// archive's verdict is counted.
func TestRunLocalDrainsEveryNode(t *testing.T) {
	reg := triage.NewImageRegistry()
	corpus, err := cluster.Corpus(6, reg)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cluster.SpawnLocal(3, cluster.SpawnOptions{
		BaseDir:     t.TempDir(),
		Resolver:    reg.Resolve,
		Replication: 3,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	res, err := RunLocal(context.Background(), lc, Options{
		Corpus:       corpus,
		RPS:          200,
		Duration:     300 * time.Millisecond,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range lc.Nodes {
		if p := n.Service.Pending(); p != 0 {
			t.Errorf("node %d still owes %d verdicts after the drain", i, p)
		}
	}
	if len(res.Acked) == 0 || res.Verdicts < int64(len(res.Acked)) {
		t.Fatalf("%d verdicts for %d acked archives: %+v", res.Verdicts, len(res.Acked), res)
	}
}

// TestSenderBoundsInFlight: however far the pacer runs ahead of a slow
// server, no more than Concurrency uploads are in flight at once.
func TestSenderBoundsInFlight(t *testing.T) {
	const limit = 3
	var inFlight, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Options{
		Targets:      []string{srv.URL},
		Corpus:       [][]byte{[]byte("a"), []byte("b")},
		RPS:          1000,
		Concurrency:  limit,
		Duration:     300 * time.Millisecond,
		DrainTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > limit || got == 0 {
		t.Fatalf("peak in flight = %d, want 1..%d (%+v)", got, limit, res)
	}
	if res.Created == 0 || len(res.Acked) != 2 {
		t.Fatalf("created %d, acked %v", res.Created, res.Acked)
	}
}

// TestEveryBlobReachesSeveralCoordinators: a run longer than a second
// sends each blob to more than one node even when the target count
// divides the corpus size, so every node's coordinator path sees
// duplicates of archives another coordinator took first.
func TestEveryBlobReachesSeveralCoordinators(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]map[int]bool{} // blob -> target indices
	var targets []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			if seen[string(body)] == nil {
				seen[string(body)] = map[int]bool{}
			}
			seen[string(body)][i] = true
			mu.Unlock()
			w.WriteHeader(http.StatusCreated)
		}))
		defer srv.Close()
		targets = append(targets, srv.URL)
	}
	// 3 blobs on 3 targets: plain round robin would pin blob i to
	// target i.
	corpus := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	if _, err := Run(context.Background(), Options{
		Targets:      targets,
		Corpus:       corpus,
		RPS:          40,
		Concurrency:  2,
		Duration:     1200 * time.Millisecond,
		DrainTimeout: -1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, blob := range corpus {
		if n := len(seen[string(blob)]); n < 2 {
			t.Errorf("blob %q reached %d coordinator(s)", blob, n)
		}
	}
}
