package cluster

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"bugnet/internal/faultinject"
	_ "bugnet/internal/gdbstub" // registers the bugnet_gdb_* families, as bugnet-serve does
	"bugnet/internal/httpjson"
	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
)

// serveOne wires one node the way bugnet-serve does — a triage service
// under dir/store, the node's upload spool in dir/cluster — and serves
// the node's handler. storeFS is the store's fault-plane view; mutate
// adjusts the node's Config once the service exists.
func serveOne(t *testing.T, storeFS *faultinject.FS, mutate func(*triage.Service, *Config)) (*Node, *httptest.Server, [][]byte) {
	t.Helper()
	reg := triage.NewImageRegistry()
	corpus, err := Corpus(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc, err := triage.New(triage.Config{Dir: filepath.Join(dir, "store"), Workers: 1,
		Resolver: reg.Resolve, FS: storeFS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	self := "http://one-node"
	cfg := Config{Self: self, Peers: []string{self}, Service: svc, SpoolDir: filepath.Join(dir, "cluster")}
	if mutate != nil {
		mutate(svc, &cfg)
	}
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return node, srv, corpus
}

// readyz fetches and decodes GET /readyz.
func readyz(t *testing.T, base string) (int, Readiness) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready Readiness
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ready
}

// spoolFiles lists the files left in a node's upload spool (the hints
// subdirectory is the handoff queue, not spool residue).
func spoolFiles(t *testing.T, n *Node) []string {
	t.Helper()
	ents, err := os.ReadDir(n.cfg.SpoolDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestReadyzProbesUploadSpool: readiness probes the spool uploads really
// stream into. With only that spool failing ENOSPC the upload answers
// 500, and /readyz must say so instead of reporting ready; healing the
// disk makes the node ready again.
func TestReadyzProbesUploadSpool(t *testing.T) {
	plane := faultinject.NewPlane(7)
	_, srv, corpus := serveOne(t, plane.FS("store"), func(_ *triage.Service, c *Config) {
		c.FS = plane.FS("spool")
	})
	if code, ready := readyz(t, srv.URL); code != http.StatusOK || !ready.Ready {
		t.Fatalf("healthy readyz: %d %+v", code, ready)
	}

	plane.SetDiskFault("spool", &faultinject.DiskFault{Err: faultinject.ErrNoSpace})
	resp := post(t, srv.URL, corpus[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload onto a full spool: %s, want 500", resp.Status)
	}
	code, ready := readyz(t, srv.URL)
	if code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz with a full spool: %d %+v, want 503 not ready", code, ready)
	}
	if !strings.Contains(strings.Join(ready.Reasons, ";"), "spool unwritable") {
		t.Fatalf("readyz reasons = %v, want a spool-unwritable reason", ready.Reasons)
	}

	plane.SetDiskFault("spool", nil)
	if code, ready := readyz(t, srv.URL); code != http.StatusOK || !ready.Ready {
		t.Fatalf("healed readyz: %d %+v, want 200 ready", code, ready)
	}
	resp = post(t, srv.URL, corpus[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload after heal: %s, want 201", resp.Status)
	}
}

// TestSpoolEmptyAfterAdoptAndDuplicate: an upload's spool file is renamed
// into the store (or deleted, for content already held) before the
// response, on the coordinator and on every replica it wrote to.
func TestSpoolEmptyAfterAdoptAndDuplicate(t *testing.T) {
	lc, corpus := spawn(t, 3, nil)
	for _, want := range []int{http.StatusCreated, http.StatusOK} {
		resp := post(t, lc.Nodes[0].URL, corpus[0])
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("upload: %s, want %d", resp.Status, want)
		}
		for i, ln := range lc.Nodes {
			if left := spoolFiles(t, ln.Node); len(left) != 0 {
				t.Fatalf("node %d spool after a %d answer: %v", i, want, left)
			}
		}
	}
	for i, ln := range lc.Nodes {
		if !ln.Service.Store().Has(blobID(corpus[0])) {
			t.Fatalf("node %d does not hold the adopted replica", i)
		}
	}
}

// TestSpoolEmptyAfterGarbage: a body that is not an archive is refused on
// every owner, leaves no spool file behind and reaches no store.
func TestSpoolEmptyAfterGarbage(t *testing.T) {
	lc, _ := spawn(t, 3, nil)
	resp := post(t, lc.Nodes[0].URL, []byte("not an archive"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 {
		t.Fatalf("garbage upload: %s, want a refusal", resp.Status)
	}
	for i, ln := range lc.Nodes {
		if left := spoolFiles(t, ln.Node); len(left) != 0 {
			t.Fatalf("node %d spool after a refused upload: %v", i, left)
		}
		if st := ln.Service.Store().Stats(); st.RetainedCount != 0 {
			t.Fatalf("node %d stored garbage: %+v", i, st)
		}
	}
}

// TestGarbageIsBadRequest: a body that is not an archive is the client's
// error, whoever coordinates it. Here the coordinator owns no replica, so
// both refusals reach it as peers' 400s; it must answer 400 bad_request
// (a 503 would make a recorder retry the bytes forever), park no hint,
// owe no repair, and leave nothing in any store or spool.
func TestGarbageIsBadRequest(t *testing.T) {
	lc, _ := spawn(t, 3, func(o *SpawnOptions) { o.Replication = 2; o.WriteQuorum = 2 })
	garbage := []byte("not an archive")
	owners := lc.Nodes[0].Node.owners(blobID(garbage))
	var coord *LocalNode
	for _, ln := range lc.Nodes {
		if !slices.Contains(owners, ln.URL) {
			coord = ln
		}
	}
	if coord == nil {
		t.Fatalf("every node owns the upload at replication 2 of 3: %v", owners)
	}

	resp := post(t, coord.URL, garbage)
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("garbage upload: %s, want 400", resp.Status)
	}
	if e := decodeEnvelope(t, resp); e.Code != httpjson.CodeBadRequest {
		t.Fatalf("error code = %q, want %q", e.Code, httpjson.CodeBadRequest)
	}
	for i, ln := range lc.Nodes {
		if left := spoolFiles(t, ln.Node); len(left) != 0 {
			t.Errorf("node %d spool after a refused upload: %v", i, left)
		}
		if hints, err := os.ReadDir(ln.Node.hintDir); err != nil || len(hints) != 0 {
			t.Errorf("node %d hints after a refused upload: %v %v", i, hints, err)
		}
		if st := ln.Service.Store().Stats(); st.RetainedCount != 0 {
			t.Errorf("node %d stored garbage: %+v", i, st)
		}
		if debt := ln.Node.RepairDebt(); debt != 0 {
			t.Errorf("node %d owes %d repairs for a refused upload", i, debt)
		}
	}
}

// TestStaleSpoolReclaimedByNew: spool files a crash left behind — an
// upload cut off mid-stream, a readiness probe — are deleted when the
// node starts; anything else in the spool directory is not the node's
// to delete.
func TestStaleSpoolReclaimedByNew(t *testing.T) {
	dir := t.TempDir()
	spool := filepath.Join(dir, "cluster")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ingest-12345.tmp", "ingest-probe-678.tmp", "operator-notes.txt"} {
		if err := os.WriteFile(filepath.Join(spool, name), []byte("half an upload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	node, _, _ := serveOne(t, nil, func(_ *triage.Service, c *Config) { c.SpoolDir = spool })
	if left := spoolFiles(t, node); len(left) != 1 || left[0] != "operator-notes.txt" {
		t.Fatalf("spool after New = %v, want only the foreign file", left)
	}
}

// designRoute matches one row of DESIGN.md §12's endpoint table.
var designRoute = regexp.MustCompile("^\\| ([A-Z/]+) \\| `(/[^`]*)` \\|")

// TestNodeRouteTable: the one-node handler answers every endpoint DESIGN
// §12 lists — with real ids, so only a missing route can 404 or 405 — and
// none of the unversioned paths.
func TestNodeRouteTable(t *testing.T) {
	var mgr *timetravel.Manager
	node, srv, corpus := serveOne(t, nil, func(svc *triage.Service, c *Config) {
		mgr = timetravel.NewManager(svc, timetravel.ManagerConfig{MaxSessions: 4})
		c.Debug = mgr
	})
	t.Cleanup(mgr.Close)
	resp := post(t, srv.URL, corpus[0])
	var ing triage.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	node.cfg.Service.WaitIdle()
	sess, err := mgr.Open(ing.ID, -1)
	if err != nil {
		t.Fatal(err)
	}

	do := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	ids := strings.NewReplacer("{id}", ing.ID, "{key}", ing.BucketKey, "{sid}", sess.ID)
	rows := routeRows(t)
	if len(rows) < 19 {
		t.Fatalf("DESIGN.md §12 lists %d routes, want >= 19: %v", len(rows), rows)
	}
	for _, r := range rows {
		if code := do(r[0], ids.Replace(r[1])); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d", r[0], r[1], code)
		}
	}
	for _, path := range []string{"/reports", "/reports/" + ing.ID, "/buckets", "/buckets/" + ing.BucketKey,
		"/cluster", "/debug/sessions", "/debug/sessions/" + sess.ID} {
		if code := do(http.MethodGet, path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
	if code := do(http.MethodPost, "/reports"); code != http.StatusNotFound {
		t.Errorf("POST /reports: %d, want 404", code)
	}
}

// routeRows returns the (method, path) pairs of DESIGN.md §12's endpoint
// table, one pair per method of a "GET/HEAD" row.
func routeRows(t *testing.T) [][2]string {
	t.Helper()
	var rows [][2]string
	for _, line := range designSection(t, "§12") {
		m := designRoute.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, method := range strings.Split(m[1], "/") {
			rows = append(rows, [2]string{method, m[2]})
		}
	}
	// DELETE last: it ends the session the other rows address.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][0] != "DELETE" && rows[j][0] == "DELETE" })
	return rows
}

// designSection returns the lines of one top-level section of DESIGN.md.
func designSection(t *testing.T, num string) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## "+num+" ")
	if !ok {
		t.Fatalf("DESIGN.md has no %s", num)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	return strings.Split(sec, "\n")
}

// designMetric matches one row of DESIGN.md §10's metric inventory: one
// full family name, its label keys if any, and its kind.
var designMetric = regexp.MustCompile("^\\| `(bugnet_[a-z0-9_]+)(?:\\{[a-z,]+\\})?`\\*? \\| ([a-z]+) \\|")

// TestMetricInventory: DESIGN §10's metric table lists exactly the
// families a bugnet-serve node exposes on /metrics, one per row, each
// with the kind of its # TYPE line. The node has a debug-session manager
// and the gdb stub is linked in, as in bugnet-serve.
func TestMetricInventory(t *testing.T) {
	_, srv, _ := serveOne(t, nil, func(svc *triage.Service, c *Config) {
		c.Debug = timetravel.NewManager(svc, timetravel.ManagerConfig{MaxSessions: 1})
		t.Cleanup(c.Debug.Close)
	})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			served[f[2]] = f[3]
		}
	}
	documented := make(map[string]string)
	for _, line := range designSection(t, "§10") {
		if !strings.HasPrefix(line, "| `bugnet_") {
			continue
		}
		if m := designMetric.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		} else {
			t.Errorf("DESIGN §10 row is not one family and its kind: %s", line)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(served)) {
		if kind, ok := documented[name]; !ok {
			t.Errorf("/metrics serves %s (%s); DESIGN §10 does not list it", name, served[name])
		} else if kind != served[name] {
			t.Errorf("%s: DESIGN §10 says %s, /metrics says %s", name, kind, served[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if _, ok := served[name]; !ok {
			t.Errorf("DESIGN §10 lists %s; /metrics does not serve it", name)
		}
	}
}
