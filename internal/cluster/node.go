package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bugnet/internal/faultinject"
	"bugnet/internal/httpjson"
	"bugnet/internal/report"
	"bugnet/internal/retry"
	"bugnet/internal/timetravel"
	"bugnet/internal/triage"
)

// Config parameterizes one cluster node.
type Config struct {
	// Self is this node's base URL exactly as it appears in Peers.
	Self string
	// Peers is the static membership: every node's base URL, including
	// Self. Empty means a single-node cluster of {Self}.
	Peers []string
	// ReplicationFactor N is how many owners store each report (default
	// 3, clamped to the membership size).
	ReplicationFactor int
	// WriteQuorum W is how many owner acks an ingest needs to succeed
	// (default majority of the effective replication factor).
	WriteQuorum int
	// Service is the local triage service (required).
	Service *triage.Service
	// Debug, when set, mounts the remote-debug API on the node's handler
	// and adds session capacity to readiness.
	Debug *timetravel.Manager
	// SpoolDir holds the coordinator's in-flight upload spool and the
	// hinted-handoff files (required; point it at the store's filesystem
	// to keep local adoption a pure rename).
	SpoolDir string

	// Admission budgets: MaxSpoolBytes / MaxInflight bound admitted
	// uploads (0 = defaults, negative = unlimited); RetryAfter is the
	// shed response's drain estimate.
	MaxSpoolBytes int64
	MaxInflight   int
	RetryAfter    time.Duration

	// PeerTimeout bounds one replica write or proxy read (default 30s).
	PeerTimeout time.Duration
	// RetryInterval paces anti-entropy rounds (default 1s).
	RetryInterval time.Duration
	// MaxRepairAttempts is the anti-entropy give-up limit per debt
	// (default 300; with the default interval ~5 minutes of outage).
	MaxRepairAttempts int

	// BreakerThreshold / BreakerCooldown tune the per-peer circuit
	// breaker (defaults 5 consecutive failures / 5s open). A peer behind
	// an open circuit is skipped without a connection attempt until a
	// half-open probe proves it back.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Transport, when set, replaces http.DefaultTransport for all peer
	// traffic — the chaos harness injects partitions and resets here.
	Transport http.RoundTripper
	// FS, when set, routes the spool and hint file I/O through a fault
	// plane. nil costs one nil-check per operation.
	FS *faultinject.FS
}

// Node is the cluster layer wrapped around one triage service: ring
// placement, coordinator forwarding, replica serving, read-repair, and
// admission control. A single-node Config degenerates to "admission
// control in front of the local service" — one code path from laptop to
// fleet.
type Node struct {
	cfg       Config
	ring      *Ring
	self      string
	replicas  int // effective replication (clamped)
	quorum    int // effective write quorum
	admission *Admission
	client    *peerClient
	fsys      *faultinject.FS
	hintDir   string
	ae        *antiEntropy
	pusher    *verdictPusher

	// fanout retries one replica write inside the coordinator's quorum
	// window; fetch retries one read-repair pull. Both are short — the
	// anti-entropy sweep is the long-haul retry.
	fanout retry.Policy
	fetch  retry.Policy
}

// New builds the node and starts its anti-entropy worker.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, errors.New("cluster: Config.Service is required")
	}
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.SpoolDir == "" {
		return nil, errors.New("cluster: Config.SpoolDir is required")
	}
	peers := cfg.Peers
	if len(peers) == 0 {
		peers = []string{cfg.Self}
	}
	found := false
	for _, p := range peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: Self %q is not in Peers %v", cfg.Self, peers)
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, err
	}
	hintDir := filepath.Join(cfg.SpoolDir, "hints")
	if err := os.MkdirAll(hintDir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-spool leaves coordinator temp files; reclaim them.
	// Hint files are NOT reclaimed — they are the only copy of a blob
	// whose owner write is still owed.
	if stale, err := filepath.Glob(filepath.Join(cfg.SpoolDir, "ingest-*.tmp")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	ring := NewRing(peers, DefaultVirtualNodes)
	replicas := cfg.ReplicationFactor
	if replicas <= 0 {
		replicas = 3
	}
	if replicas > ring.Len() {
		replicas = ring.Len()
	}
	quorum := cfg.WriteQuorum
	if quorum <= 0 {
		quorum = replicas/2 + 1
	}
	if quorum > replicas {
		return nil, fmt.Errorf("cluster: write quorum %d exceeds replication factor %d", quorum, replicas)
	}
	breakers := retry.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown)
	n := &Node{
		cfg:       cfg,
		ring:      ring,
		self:      cfg.Self,
		replicas:  replicas,
		quorum:    quorum,
		admission: NewAdmission(cfg.MaxSpoolBytes, cfg.MaxInflight, cfg.RetryAfter),
		client:    newPeerClient(cfg.PeerTimeout, cfg.Transport, breakers),
		fsys:      cfg.FS,
		hintDir:   hintDir,
		fanout: retry.Policy{
			MaxAttempts: 3,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    time.Second,
		},
		fetch: retry.Policy{
			MaxAttempts: 2,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    time.Second,
		},
	}
	mRingNodes.Set(int64(ring.Len()))
	n.ae = newAntiEntropy(n, cfg.RetryInterval, cfg.MaxRepairAttempts)
	n.pusher = newVerdictPusher(n)
	cfg.Service.SetVerdictHook(n.pusher.offer)
	n.recoverHints()
	return n, nil
}

// Close stops the anti-entropy worker and the verdict pusher and drops
// the peer transport's idle connections (their reader goroutines would
// otherwise outlive the node). Pending repair tasks and unsent verdicts
// are dropped from memory; hint files survive for the next start, and
// the peers' own sweeps fetch what was not pushed.
func (n *Node) Close() {
	n.ae.close()
	n.pusher.close()
	n.client.closeIdle()
}

// Ring exposes the placement ring (read-only use).
func (n *Node) Ring() *Ring { return n.ring }

// ReplicationFactor returns the effective (clamped) replication factor.
func (n *Node) ReplicationFactor() int { return n.replicas }

// WriteQuorum returns the effective write quorum.
func (n *Node) WriteQuorum() int { return n.quorum }

// RepairDebt returns the number of replica writes still owed — the
// chaos harness polls it to zero to prove convergence after a storm.
func (n *Node) RepairDebt() int { return n.ae.depth() }

// owners returns the owner set of one report id.
func (n *Node) owners(id string) []string { return n.ring.Owners(id, n.replicas) }

// replayer names the one owner that replays id; every other owner
// stores the archive and adopts that node's verdict. This node, when it
// is an owner — unless it is itself waiting for the verdict, in which
// case whoever it waits for (a duplicate upload must not start a second
// replay); the ring's first owner otherwise.
func (n *Node) replayer(id string, owners []string) string {
	for _, o := range owners {
		if o == n.self {
			if awaited, ok := n.cfg.Service.Awaiting(id); ok {
				return awaited
			}
			return n.self
		}
	}
	return owners[0]
}

// markFor is the replayer mark a replica write to node carries: empty
// for the replayer itself, which must replay, not wait.
func markFor(node, replayer string) string {
	if node == replayer {
		return ""
	}
	return replayer
}

// recoverHints re-files the replication debt recorded by hint files from
// a previous run. A hint is trusted only after its content re-hashes to
// its name; foreign or corrupt files are quarantined (moved aside with a
// counter), never deleted and never retried forever.
func (n *Node) recoverHints() {
	entries, err := os.ReadDir(n.hintDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // the quarantine subdir
		}
		name := e.Name()
		path := filepath.Join(n.hintDir, name)
		if !report.ValidID(name) { // not named by a blob's content address: foreign
			n.quarantineHint(path)
			continue
		}
		got, err := hashFile(path)
		if err != nil || got != name {
			n.quarantineHint(path)
			continue
		}
		for _, o := range n.owners(name) {
			if o != n.self {
				// Owners that already hold the blob are skipped by the
				// repair worker's hasReplica check; the hint file itself is
				// reclaimed once no debt for its id remains.
				n.ae.enqueue(name, o)
			}
		}
	}
}

// quarantineHint moves a hint file the node refuses to act on into the
// quarantine subdir for operator inspection.
func (n *Node) quarantineHint(path string) {
	qdir := filepath.Join(n.hintDir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
		mHintsQuarantined.Inc()
	}
}

// hashFile returns the hex sha256 of a file's content.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spoolBody streams body to a coordinator temp file while hashing,
// returning the file path, the content address, and the byte count. The
// caller removes the file (adoption renames it away first).
func (n *Node) spoolBody(body io.Reader) (path, id string, size int64, err error) {
	tmp, err := n.fsys.CreateTemp(n.cfg.SpoolDir, "ingest-*.tmp")
	if err != nil {
		return "", "", 0, err
	}
	path = tmp.Name()
	h := sha256.New()
	size, err = io.Copy(io.MultiWriter(tmp, h), body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", "", 0, err
	}
	return path, hex.EncodeToString(h.Sum(nil)), size, nil
}

// forwardResult is one owner's replica-write outcome.
type forwardResult struct {
	node string
	body []byte // IngestResult JSON from a remote owner
	err  error
}

// putReplicaFile pushes one spooled blob to a peer under the fan-out
// retry policy, re-opening the file per attempt so a half-sent body is
// never resumed mid-stream. The write is marked with id's replayer
// unless node is that replayer.
func (n *Node) putReplicaFile(ctx context.Context, node, id, path string, size int64, replayer string) ([]byte, error) {
	var respBody []byte
	err := n.fanout.Do(ctx, func(ctx context.Context) error {
		f, err := os.Open(path)
		if err != nil {
			return retry.Permanent(err) // local spool gone; retrying cannot help
		}
		defer f.Close()
		body, err := n.client.putReplica(ctx, node, id, f, size, markFor(node, replayer))
		if err == nil {
			respBody = body
		}
		return err
	})
	return respBody, err
}

// ingest is the coordinator path behind POST /api/v1/reports: spool +
// hash the upload, place it on the ring, name the one owner that replays
// it, write to every owner (local adoption for self, streaming PUT for
// remotes), succeed at quorum, and hand the stragglers to anti-entropy.
func (n *Node) ingest(ctx context.Context, body io.Reader) (*triage.IngestResult, *ingestError) {
	path, id, size, err := n.spoolBody(body)
	if err != nil {
		return nil, ingestFailed(err)
	}
	defer os.Remove(path) // no-op once adopted or parked as a hint

	owners := n.owners(id)
	selfOwner := false
	var remotes []string
	for _, o := range owners {
		if o == n.self {
			selfOwner = true
		} else {
			remotes = append(remotes, o)
		}
	}
	replayer := n.replayer(id, owners)

	// Remote replicas first — they stream from the spool file, which the
	// local adoption below consumes.
	results := make([]forwardResult, len(remotes))
	var wg sync.WaitGroup
	for i, node := range remotes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			respBody, err := n.putReplicaFile(ctx, node, id, path, size, replayer)
			results[i] = forwardResult{node: node, body: respBody, err: err}
			if err != nil {
				mForwardErr.Inc()
			} else {
				mForwardOK.Inc()
			}
		}(i, node)
	}
	wg.Wait()

	acks := 0
	var res *triage.IngestResult
	var failed []string
	refused := ""
	for _, fr := range results {
		if fr.err != nil {
			if msg, ok := badArchive(fr.err); ok {
				refused = msg
			}
			failed = append(failed, fr.node)
			continue
		}
		acks++
		if res == nil {
			if parsed := parseIngestResult(fr.body); parsed != nil {
				res = parsed
			}
		}
	}
	if selfOwner {
		local, err := n.cfg.Service.IngestFile(id, path, size,
			triage.Origin{RequestID: httpjson.RequestID(ctx), Replayer: markFor(n.self, replayer)})
		if err != nil {
			if msg, ok := badArchive(err); ok {
				refused = msg
			}
			failed = append(failed, n.self)
		} else {
			acks++
			mForwardSelf.Inc()
			res = local // the local result wins: it names this node's bucket state
		}
	}
	if refused != "" {
		// No retry or repair can land bytes that are no archive: owe
		// nothing and tell the client its request is wrong.
		return nil, badRequest(refused)
	}

	if acks < n.quorum {
		mQuorumFail.Inc()
		return nil, quorumFailed(fmt.Sprintf(
			"wrote %d of %d replicas (need %d): %v unreachable", acks, len(owners), n.quorum, failed))
	}
	if len(failed) > 0 {
		// Quorum met with stragglers: owe them the blob. When this node
		// is not an owner the spool file is the only local copy — park it
		// as a hint for the anti-entropy worker.
		if !selfOwner {
			hint := filepath.Join(n.hintDir, id)
			if err := n.fsys.Rename(path, hint); err != nil && !os.IsNotExist(err) {
				// Fall back to leaving repair to a holder-fetch.
				mRepairErr.Inc()
			}
		}
		for _, node := range failed {
			n.ae.enqueue(id, node)
		}
	}
	if res == nil {
		// Quorum met purely by remote acks whose bodies did not parse
		// (version skew): the write stands, synthesize the result.
		res = &triage.IngestResult{ID: id, Duplicate: false}
	}
	return res, nil
}

// badArchive returns the message of an owner's refusal of the bytes as
// no archive (report.ErrBadArchive locally, or a peer's 400 carrying it).
// Every owner validates the same bytes, so one refusal speaks for all.
func badArchive(err error) (string, bool) {
	var pe *peerError
	switch {
	case errors.Is(err, report.ErrBadArchive):
		return err.Error(), true
	case errors.As(err, &pe) && pe.status == http.StatusBadRequest &&
		strings.HasPrefix(pe.msg, report.ErrBadArchive.Error()):
		return pe.msg, true
	}
	return "", false
}

// parseIngestResult decodes a replica endpoint's IngestResult body,
// tolerating junk (nil).
func parseIngestResult(data []byte) *triage.IngestResult {
	if len(data) == 0 {
		return nil
	}
	var res triage.IngestResult
	if err := json.Unmarshal(data, &res); err != nil || res.ID == "" {
		return nil
	}
	return &res
}

// readRepairLocal fetches id from another owner and adopts it locally —
// the read-repair path for an owner serving a read it should hold but
// does not (a write it missed while down). Returns whether the blob is
// now local.
func (n *Node) readRepairLocal(ctx context.Context, id string) bool {
	for _, o := range n.owners(id) {
		if o == n.self {
			continue
		}
		repaired := false
		n.fetch.Do(ctx, func(ctx context.Context) error {
			rc, size, err := n.client.getReplica(ctx, o, id)
			if err != nil {
				return err
			}
			path, gotID, gotSize, err := func() (string, string, int64, error) {
				defer rc.Close()
				return n.spoolBody(rc)
			}()
			if err != nil {
				mRepairErr.Inc()
				return err
			}
			if gotID != id || (size >= 0 && size != gotSize) {
				// A peer served bytes that do not hash to the requested id:
				// corruption or tampering — refuse to launder it into the store.
				os.Remove(path)
				mRepairErr.Inc()
				return retry.Permanent(fmt.Errorf("cluster: replica %s from %s hashed to %s", id, o, gotID))
			}
			// Nobody named a replayer for a write this node missed: it
			// replays the archive itself unless the verdict is cached.
			if _, err := n.cfg.Service.IngestFile(id, path, gotSize,
				triage.Origin{RequestID: httpjson.RequestID(ctx)}); err != nil {
				os.Remove(path)
				mRepairErr.Inc()
				return err
			}
			repaired = true
			return nil
		})
		if repaired {
			mRepairsTotal.Inc()
			return true
		}
	}
	return false
}
