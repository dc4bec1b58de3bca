package loadgen

import (
	"context"
	"testing"
	"time"

	"bugnet/internal/cluster"
	"bugnet/internal/triage"
)

func TestCorpusDistinct(t *testing.T) {
	reg := triage.NewImageRegistry()
	blobs, err := Corpus(5, reg)
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
	corpus, err := Corpus(4, reg)
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
