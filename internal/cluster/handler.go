package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
)

// ingestError is a coordinator failure already mapped to wire terms.
type ingestError struct {
	status int
	code   string
	msg    string
}

func ingestFailed(err error) *ingestError {
	return &ingestError{status: http.StatusInternalServerError, code: httpjson.CodeInternal, msg: err.Error()}
}

func quorumFailed(msg string) *ingestError {
	return &ingestError{status: http.StatusServiceUnavailable, code: httpjson.CodeReplicaUnavailable, msg: msg}
}

func badRequest(msg string) *ingestError {
	return &ingestError{status: http.StatusBadRequest, code: httpjson.CodeBadRequest, msg: msg}
}

// Handler builds the node's one HTTP surface on a single mux: the
// cluster layer's own routes, triage's listings, health and metrics
// (triage.RegisterRoutes), and the remote-debug API when Config.Debug is
// set (timetravel.RegisterRoutes). A pattern registered twice panics, so
// no route can be shadowed by another copy of itself.
//
//	POST /api/v1/reports              — coordinate: place, fan out, quorum (any node)
//	GET  /api/v1/reports/{id}         — local, else proxy to an owner + read-repair
//	GET  /api/v1/cluster              — membership, ring, per-node health, admission occupancy
//	GET  /readyz                      — readiness: store, spool, debug capacity, write quorum
//	PUT  /internal/v1/replicas/{id}   — owner-local write (hash-verified), never forwards
//	PUT  /internal/v1/verdicts/{id}   — the replayer's done verdict, adopted beside the archive
//	GET  /internal/v1/replicas/{id}   — owner-local blob read, never forwards
//	GET  /internal/v1/reports/{id}    — owner-local metadata read, never forwards
//
// The /internal/v1 routes being strictly local is the loop-freedom
// invariant: a public request forwards at most one hop.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()

	httpjson.Handle(mux, "POST /reports", n.handleIngest)
	httpjson.Handle(mux, "GET /reports/{id}", n.handleGetReport)
	httpjson.Handle(mux, "GET /cluster", n.handleClusterInfo)
	mux.HandleFunc("GET /readyz", n.handleReadyz)

	mux.HandleFunc("PUT /internal/v1/replicas/{id}", n.handleReplicaPut)
	mux.HandleFunc("GET /internal/v1/replicas/{id}", n.handleReplicaGet)
	mux.HandleFunc("GET /internal/v1/reports/{id}", n.handleLocalMeta)
	mux.HandleFunc("PUT /internal/v1/verdicts/{id}", n.handleVerdictPut)

	triage.RegisterRoutes(mux, n.cfg.Service)
	if n.cfg.Debug != nil {
		timetravel.RegisterRoutes(mux, n.cfg.Debug)
	}
	return mux
}

// shed answers an upload the admission controller refused.
func (n *Node) shed(w http.ResponseWriter, r *http.Request) {
	httpjson.Overloaded(w, r, n.admission.RetryAfter(),
		"ingest budget exhausted; retry after the spool drains")
}

// shedDegraded refuses a write when the local store cannot durably hold
// it — a 503 with the reason beats an ack the disk would lose. Healthy
// re-probes the disk, so a healed fault restores ingest by itself.
func (n *Node) shedDegraded(w http.ResponseWriter, r *http.Request) bool {
	err := n.cfg.Service.Healthy()
	if err == nil {
		return false
	}
	mDegradedSheds.Inc()
	httpjson.Fail(w, r, http.StatusServiceUnavailable, httpjson.CodeUnavailable,
		"store degraded: "+err.Error())
	return true
}

// Readiness is the document GET /readyz serves: ready, or not with the
// reasons traffic is being shed.
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz is GET /readyz, stricter than liveness: can this node take
// an upload and open a debug session right now? Every failing condition
// is a reason — a degraded store, an unwritable upload spool, debug
// sessions at capacity, and a write quorum that open circuits make
// unattainable (a single shed peer leaves the node ready as long as
// quorum-many owners remain reachable). 200 with none, 503 otherwise.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if err := n.cfg.Service.Healthy(); err != nil {
		reasons = append(reasons, "store degraded: "+err.Error())
	}
	if err := n.probeSpool(); err != nil {
		reasons = append(reasons, "spool unwritable: "+err.Error())
	}
	if n.cfg.Debug != nil {
		if open, max := n.cfg.Debug.Capacity(); open >= max {
			reasons = append(reasons, fmt.Sprintf("debug sessions at capacity (%d/%d)", open, max))
		}
	}
	if open := n.client.openBreakers(); len(open) > 0 && n.ring.Len()-len(open) < n.quorum {
		reasons = append(reasons, fmt.Sprintf(
			"write quorum %d unattainable: circuit open to %v", n.quorum, open))
	}
	code := http.StatusOK
	if len(reasons) > 0 {
		code = http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, Readiness{Ready: len(reasons) == 0, Reasons: reasons})
}

// probeSpool creates and removes one file in the upload spool, through
// the same fault plane as spoolBody. The name matches the stale-file
// sweep in New, so a probe cut short by a crash is reclaimed.
func (n *Node) probeSpool() error {
	f, err := n.fsys.CreateTemp(n.cfg.SpoolDir, "ingest-probe-*.tmp")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}

// handleIngest is POST /api/v1/reports: degradation check, admission,
// then coordinate.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if n.shedDegraded(w, r) {
		return
	}
	release, ok := n.admission.Acquire(r.ContentLength)
	if !ok {
		n.shed(w, r)
		return
	}
	defer release(-1)
	if r.ContentLength > triage.MaxUploadBytes {
		httpjson.Fail(w, r, http.StatusRequestEntityTooLarge, httpjson.CodeTooLarge,
			"report exceeds upload limit")
		return
	}
	res, ierr := n.ingest(r.Context(), http.MaxBytesReader(w, r.Body, triage.MaxUploadBytes))
	if ierr != nil {
		httpjson.Fail(w, r, ierr.status, ierr.code, ierr.msg)
		return
	}
	code := http.StatusCreated
	if res.Duplicate {
		code = http.StatusOK
	}
	httpjson.Write(w, code, res)
}

// handleGetReport is GET /api/v1/reports/{id}: serve locally when the
// report is here; otherwise proxy from an owner, read-repairing this
// node first if the placement says the blob belongs here.
func (n *Node) handleGetReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw := r.URL.Query().Get("raw") == "1"

	if !n.locallyReadable(id, raw) && n.ring.IsOwner(id, n.self, n.replicas) {
		// An owner asked for a report it does not hold: it missed the
		// write (down, or shedding). Pull the blob back before serving —
		// the read heals the replication factor.
		n.readRepairLocal(r.Context(), id)
	}
	if n.locallyReadable(id, raw) {
		n.serveLocalReport(w, r, id, raw)
		return
	}
	n.proxyGetReport(w, r, id, raw)
}

func (n *Node) locallyReadable(id string, raw bool) bool {
	if raw {
		return n.cfg.Service.Store().Has(id)
	}
	_, ok := n.cfg.Service.Report(id)
	return ok
}

func (n *Node) serveLocalReport(w http.ResponseWriter, r *http.Request, id string, raw bool) {
	if raw {
		triage.ServeRaw(n.cfg.Service, w, r, id)
		return
	}
	m, ok := n.cfg.Service.Report(id)
	if !ok {
		httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such report")
		return
	}
	httpjson.Write(w, http.StatusOK, m)
}

// proxyGetReport serves id from the first owner that has it. A miss on
// every reachable owner is a clean 404; owners that errored while none
// had it means the truth is unknowable right now — 503 replica_unavailable.
func (n *Node) proxyGetReport(w http.ResponseWriter, r *http.Request, id string, raw bool) {
	sawError := false
	for _, o := range n.owners(id) {
		if o == n.self {
			continue
		}
		if raw {
			rc, _, err := n.client.getReplica(r.Context(), o, id)
			if err != nil {
				if pe, ok := err.(*peerError); !ok || pe.status != http.StatusNotFound {
					sawError = true
					mProxyErr.Inc()
				}
				continue
			}
			mProxyOK.Inc()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			io.Copy(w, rc)
			rc.Close()
			return
		}
		body, err := n.client.getMeta(r.Context(), o, id)
		if err != nil {
			var pe *peerError
			if !errors.As(err, &pe) || pe.status != http.StatusNotFound {
				sawError = true
				mProxyErr.Inc()
			}
			continue
		}
		mProxyOK.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	if sawError {
		httpjson.Fail(w, r, http.StatusServiceUnavailable, httpjson.CodeReplicaUnavailable,
			"no replica owner reachable for "+id)
		return
	}
	mProxyMiss.Inc()
	httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such report")
}

// handleReplicaPut is the owner-side half of a coordinated write:
// admission-bounded spool, content-hash verification against {id}, local
// adoption. A write marked with another member as the replayer is stored
// and left awaiting that node's verdict. Never forwards.
func (n *Node) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	if n.shedDegraded(w, r) {
		return
	}
	id := r.PathValue("id")
	release, ok := n.admission.Acquire(r.ContentLength)
	if !ok {
		n.shed(w, r)
		return
	}
	defer release(-1)
	path, gotID, size, err := n.spoolBody(http.MaxBytesReader(w, r.Body, triage.MaxUploadBytes))
	if !triage.WriteIngestError(w, r, err) {
		return
	}
	defer os.Remove(path)
	if gotID != id {
		// The bytes do not hash to the claimed address — a corrupt or
		// confused coordinator. Refusing here keeps the content-addressed
		// invariant: a stored id always names exactly its own bytes.
		httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest,
			"content hash mismatch: body is "+gotID)
		return
	}
	from := triage.Origin{RequestID: httpjson.RequestID(r.Context())}
	if mark := r.Header.Get(replayerHeader); mark != n.self && n.ring.Has(mark) {
		// Only a member can be waited for: the sweep will call this URL.
		from.Replayer = mark
	}
	res, err := n.cfg.Service.IngestFile(id, path, size, from)
	if !triage.WriteIngestError(w, r, err) {
		return
	}
	code := http.StatusCreated
	if res.Duplicate {
		code = http.StatusOK
	}
	httpjson.Write(w, code, res)
}

// handleReplicaGet streams a locally held blob. Never forwards — a miss
// is a 404 even when a peer has it, which is what makes proxy reads
// loop-free.
func (n *Node) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	triage.ServeRaw(n.cfg.Service, w, r, r.PathValue("id"))
}

// handleLocalMeta serves locally known report metadata. Never forwards.
func (n *Node) handleLocalMeta(w http.ResponseWriter, r *http.Request) {
	m, ok := n.cfg.Service.Report(r.PathValue("id"))
	if !ok {
		httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such report")
		return
	}
	httpjson.Write(w, http.StatusOK, m)
}

// handleVerdictPut takes the verdict the replayer of {id} pushes to the
// other owners. It is trusted as far as a replica write is — the route is
// internal — and checked as far as it can be: bounded, well-formed, done.
func (n *Node) handleVerdictPut(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxVerdictBytes))
	dec.DisallowUnknownFields()
	var v triage.Verdict
	err := dec.Decode(&v)
	if err == nil && dec.More() {
		err = errors.New("trailing data after the verdict object")
	}
	if err != nil {
		code, status := httpjson.CodeBadRequest, http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code, status = httpjson.CodeTooLarge, http.StatusRequestEntityTooLarge
		}
		httpjson.Fail(w, r, status, code, "verdict: "+err.Error())
		return
	}
	if _, err := n.cfg.Service.AdoptVerdict(r.PathValue("id"), &v); errors.Is(err, triage.ErrClosed) {
		triage.WriteIngestError(w, r, err) // shutting down, as an ingest would be
		return
	} else if err != nil {
		httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// NodeHealth is one member's probed state in the /api/v1/cluster view.
type NodeHealth struct {
	Node    string `json:"node"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// ClusterInfo is the GET /api/v1/cluster response.
type ClusterInfo struct {
	Self              string       `json:"self"`
	ReplicationFactor int          `json:"replication_factor"`
	WriteQuorum       int          `json:"write_quorum"`
	VirtualNodes      int          `json:"virtual_nodes"`
	Nodes             []NodeHealth `json:"nodes"`
	AdmissionBytes    int64        `json:"admission_bytes"`
	AdmissionInflight int          `json:"admission_inflight"`
	RepairQueue       int          `json:"repair_queue"`
	// Degraded is this node's store-degradation reason (empty = healthy):
	// why it is shedding writes with 503.
	Degraded string `json:"degraded,omitempty"`
	// OpenBreakers lists peers this node currently refuses to call
	// because their circuit is open.
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// handleClusterInfo is GET /api/v1/cluster: static ring facts plus a
// live health probe of every member (self answers without a round trip).
func (n *Node) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	members := n.ring.Nodes()
	health := make([]NodeHealth, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if m == n.self {
			health[i] = NodeHealth{Node: m, Healthy: true}
			continue
		}
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			if err := n.client.health(ctx, m); err != nil {
				health[i] = NodeHealth{Node: m, Healthy: false, Error: err.Error()}
				return
			}
			health[i] = NodeHealth{Node: m, Healthy: true}
		}(i, m)
	}
	wg.Wait()
	bytes, inflight := n.admission.Occupancy()
	info := ClusterInfo{
		Self:              n.self,
		ReplicationFactor: n.replicas,
		WriteQuorum:       n.quorum,
		VirtualNodes:      DefaultVirtualNodes,
		Nodes:             health,
		AdmissionBytes:    bytes,
		AdmissionInflight: inflight,
		RepairQueue:       n.ae.depth(),
		OpenBreakers:      n.client.openBreakers(),
	}
	if err := n.cfg.Service.Healthy(); err != nil {
		info.Degraded = err.Error()
	}
	httpjson.Write(w, http.StatusOK, info)
}
