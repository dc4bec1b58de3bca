package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bugnet/internal/faultinject"
	"bugnet/internal/httpjson"
	"bugnet/internal/loadgen"
	"bugnet/internal/triage"
)

// checkGoroutineLeaks snapshots the goroutine count and, after the
// test's own cleanups (register it BEFORE spawning the cluster), fails
// if the count has not settled back. Idle HTTP connections are reclaimed
// first — their reader goroutines are pooling, not leaking.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after cleanup\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(50 * time.Millisecond)
		}
	})
}

// TestClusterDegradedStoreSheds: a node whose store disk goes sticky-bad
// refuses writes with 503 + reason instead of acking reports it would
// lose, surfaces the reason in /readyz and /api/v1/cluster, and resumes
// ingest by itself once the disk heals.
func TestClusterDegradedStoreSheds(t *testing.T) {
	reg := triage.NewImageRegistry()
	corpus, err := loadgen.Corpus(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Separate fault tags so only the triage store is faulted, never the
	// coordinator spool — the degradation must come from the store itself.
	plane := faultinject.NewPlane(7)
	dir := t.TempDir()
	svc, err := triage.New(triage.Config{
		Dir:      filepath.Join(dir, "store"),
		Workers:  1,
		Resolver: reg.Resolve,
		FS:       plane.FS("store"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	self := "http://degraded-node"
	node, err := New(Config{
		Self:              self,
		Peers:             []string{self},
		ReplicationFactor: 1,
		WriteQuorum:       1,
		Service:           svc,
		Inner:             triage.NewHandler(svc),
		SpoolDir:          filepath.Join(dir, "cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)

	resp := post(t, srv.URL, corpus[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("healthy ingest: %s", resp.Status)
	}

	// Disk goes bad: the in-flight write fails (marking the store
	// degraded), and every write after that is shed before spooling.
	plane.SetDiskFault("store", &faultinject.DiskFault{Err: faultinject.ErrNoSpace})
	resp = post(t, srv.URL, corpus[1])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write onto bad disk: %s, want 503", resp.Status)
	}

	resp = post(t, srv.URL, corpus[1])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write while degraded: %s, want 503", resp.Status)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != httpjson.CodeUnavailable || !strings.Contains(e.Message, "store degraded") {
		t.Fatalf("degraded shed envelope = %+v", e)
	}
	if n := scrapeCounter(t, srv.URL, "bugnet_cluster_degraded_sheds_total"); n < 1 {
		t.Fatalf("bugnet_cluster_degraded_sheds_total = %d, want >= 1", n)
	}

	// The reason is visible in readiness and the cluster view.
	rresp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready triage.Readiness
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("degraded readyz: %s ready=%v", rresp.Status, ready.Ready)
	}
	if !strings.Contains(strings.Join(ready.Reasons, ";"), "store degraded") {
		t.Fatalf("readyz reasons = %v, want a store-degraded reason", ready.Reasons)
	}
	iresp, err := http.Get(srv.URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var info ClusterInfo
	if err := json.NewDecoder(iresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if info.Degraded == "" {
		t.Fatal("ClusterInfo.Degraded is empty while the store is degraded")
	}

	// Heal the disk: the rate-limited health probe clears the sticky
	// error and ingest resumes without a restart.
	plane.SetDiskFault("store", nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = post(t, srv.URL, corpus[1])
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest did not recover after heal: %s", resp.Status)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestReadyzBreakerReasons: when open circuits leave fewer reachable
// members than the write quorum needs, /readyz flips to 503 and names
// the shed peers.
func TestReadyzBreakerReasons(t *testing.T) {
	lc, corpus := spawn(t, 3, func(o *SpawnOptions) {
		o.BreakerThreshold = 1
		o.BreakerCooldown = time.Hour
	})
	a := lc.Nodes[0]
	lc.Nodes[1].Stop()
	lc.Nodes[2].Stop()

	// One failed fan-out trips both peers' breakers at threshold 1.
	resp := post(t, a.URL, corpus[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write with both peers down: %s", resp.Status)
	}

	rresp, err := http.Get(a.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready triage.Readiness
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz with quorum unreachable: %s ready=%v reasons=%v",
			rresp.Status, ready.Ready, ready.Reasons)
	}
	if !strings.Contains(strings.Join(ready.Reasons, ";"), "write quorum") {
		t.Fatalf("readyz reasons = %v, want a quorum reason", ready.Reasons)
	}
}

// TestAntiEntropyGiveUpSurfacesInDrops: a debt whose owner never returns
// is abandoned at the attempt cap — the queue drains instead of spinning
// forever, and the abandonment shows in the drops counter.
func TestAntiEntropyGiveUpSurfacesInDrops(t *testing.T) {
	lc, corpus := spawn(t, 3, func(o *SpawnOptions) {
		o.RetryInterval = 20 * time.Millisecond
		o.MaxRepairAttempts = 3
	})
	a, b := lc.Nodes[0], lc.Nodes[1]
	before := scrapeCounter(t, a.URL, "bugnet_cluster_antientropy_drops_total")

	b.Stop()
	resp := post(t, a.URL, corpus[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("quorum write: %s", resp.Status)
	}
	if a.Node.RepairDebt() == 0 {
		t.Fatal("no replication debt recorded for the down owner")
	}

	// B never returns: three sweeps exhaust the cap and the debt drains.
	deadline := time.Now().Add(10 * time.Second)
	for a.Node.RepairDebt() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair queue still holds %d tasks after the attempt cap", a.Node.RepairDebt())
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := scrapeCounter(t, a.URL, "bugnet_cluster_antientropy_drops_total")
	if after <= before {
		t.Fatalf("bugnet_cluster_antientropy_drops_total did not advance (%d -> %d)", before, after)
	}
}

// TestHintQuarantine: hint files that cannot be trusted — foreign names,
// or content that no longer hashes to the name — are moved aside with a
// counter, while a valid hint re-files its replication debt and is handed
// off to the owner it was parked for.
func TestHintQuarantine(t *testing.T) {
	lc, corpus := spawn(t, 2, func(o *SpawnOptions) {
		o.Replication = 2
		o.WriteQuorum = 1
	})
	a := lc.Nodes[0]
	hintDir := a.Node.hintDir

	valid := corpus[0]
	validID := blobID(valid)
	corruptID := blobID(corpus[1])
	if err := os.WriteFile(filepath.Join(hintDir, "not-a-hash"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(hintDir, corruptID), corpus[1][:len(corpus[1])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(hintDir, validID), valid, 0o644); err != nil {
		t.Fatal(err)
	}

	a.Node.recoverHints()

	qdir := filepath.Join(hintDir, "quarantine")
	for _, name := range []string{"not-a-hash", corruptID} {
		if _, err := os.Stat(filepath.Join(qdir, name)); err != nil {
			t.Fatalf("untrusted hint %q was not quarantined: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(hintDir, name)); err == nil {
			t.Fatalf("untrusted hint %q still in the hint dir", name)
		}
	}
	// Filing a debt wakes the sweeper whatever RetryInterval says, so the
	// valid hint may be handed off at any moment: assert where it ends up.
	// Its bytes exist nowhere else, so the peer holding the blob proves the
	// debt was filed from the hint; then the ledger empties and the hint
	// is reclaimed.
	b := lc.Nodes[1]
	eventually(t, "the valid hint to reach the peer", func() bool {
		return b.Service.Store().Has(validID)
	})
	eventually(t, "the paid debt to clear and the hint to be reclaimed", func() bool {
		_, err := os.Stat(filepath.Join(hintDir, validID))
		return a.Node.RepairDebt() == 0 && os.IsNotExist(err)
	})
}
