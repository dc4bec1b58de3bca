package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/retry"
)

// peerClient is the thin HTTP client behind replica forwarding, proxy
// reads, anti-entropy pushes, and health probes. The internal endpoints
// are strictly local on the receiving node (they never forward), which
// is what makes the coordinator's fan-out loop-free.
//
// Every request carries a context deadline end-to-end — including the
// streaming body of a replica read — so a peer that dies mid-response
// can never hang a coordinator goroutine. A per-peer circuit breaker
// front-runs each call: a peer that keeps failing is shed locally
// (retry.ErrOpen, wrapped Permanent so retry loops fail fast) until a
// half-open probe proves it back.
type peerClient struct {
	hc       *http.Client
	timeout  time.Duration
	breakers *retry.BreakerSet
}

func newPeerClient(timeout time.Duration, transport http.RoundTripper, breakers *retry.BreakerSet) *peerClient {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &peerClient{
		hc:       &http.Client{Transport: transport},
		timeout:  timeout,
		breakers: breakers,
	}
}

// closeIdle drops the transport's idle connections so a stopped node
// does not leak per-connection reader goroutines.
func (c *peerClient) closeIdle() {
	type idleCloser interface{ CloseIdleConnections() }
	if t, ok := c.hc.Transport.(idleCloser); ok {
		t.CloseIdleConnections()
	}
}

// openBreakers lists the peers currently shed by an open circuit.
func (c *peerClient) openBreakers() []string {
	if c.breakers == nil {
		return nil
	}
	return c.breakers.Open()
}

// start guards one peer call: consult the breaker, then bound the call
// (headers and body both) with the client deadline.
func (c *peerClient) start(ctx context.Context, node string) (context.Context, context.CancelFunc, error) {
	if c.breakers != nil && !c.breakers.For(node).Allow() {
		return nil, nil, retry.Permanent(fmt.Errorf("%w: %s", retry.ErrOpen, node))
	}
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	return cctx, cancel, nil
}

// observe reports one call's outcome to the peer's breaker. A peer that
// answered — any status, even a 4xx or an admission 429 — is alive;
// only transport failures and 5xx responses count against the circuit.
func (c *peerClient) observe(node string, err error) {
	if c.breakers == nil {
		return
	}
	if isBreakerFailure(err) {
		c.breakers.For(node).Failure()
	} else {
		c.breakers.For(node).Success()
	}
}

func isBreakerFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, retry.ErrOpen) {
		return false // shed locally; nothing new learned about the peer
	}
	var pe *peerError
	if errors.As(err, &pe) {
		return pe.status >= 500
	}
	return true // transport-level failure: reset, timeout, refused
}

// peerError carries the upstream status so callers can distinguish a
// replica miss (404) from a replica failure.
type peerError struct {
	status int
	code   string
	msg    string
}

func (e *peerError) Error() string {
	return fmt.Sprintf("peer: %d %s: %s", e.status, e.code, e.msg)
}

// decodeFailure turns a non-2xx response into an error classified for
// the retry layer: 429/503 are retryable and carry the server's
// Retry-After hint; other 4xx are permanent (retrying cannot fix a bad
// request); 5xx are retryable.
func (c *peerClient) decodeFailure(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	body, _ := httpjson.DecodeError(data)
	if body.Code == "" {
		body.Code = httpjson.CodeForStatus(resp.StatusCode)
	}
	err := error(&peerError{status: resp.StatusCode, code: body.Code, msg: body.Message})
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		if d, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			err = retry.After(err, d)
		}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		err = retry.Permanent(err)
	}
	return err
}

func joinURL(base, path string) string {
	return strings.TrimRight(base, "/") + path
}

// replayerHeader marks a replica write whose archive the named node
// replays: the receiving owner stores it and awaits that node's verdict.
const replayerHeader = "X-Bugnet-Replayer"

// maxVerdictBytes bounds the body of a pushed verdict.
const maxVerdictBytes = 1 << 20

// newPeerRequest builds one request to a peer's route. Every peer hop
// goes through it, so the id of the request being served — or of the
// upload a background push or pull works for — reaches the peer's own
// middleware and one upload reads as one id in every node's log.
func newPeerRequest(ctx context.Context, method, node, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, joinURL(node, path), body)
	if err != nil {
		return nil, err
	}
	if id := httpjson.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	return req, nil
}

// send runs one breaker-guarded, deadline-bounded call and reports the
// outcome to the peer's breaker. prepare (optional) finishes the request
// before it goes out. The response comes back whatever its status; on
// success the caller owns both it and cancel.
func (c *peerClient) send(ctx context.Context, method, node, path string, body io.Reader, prepare func(*http.Request)) (*http.Response, context.CancelFunc, error) {
	cctx, cancel, err := c.start(ctx, node)
	if err != nil {
		return nil, nil, err
	}
	req, err := newPeerRequest(cctx, method, node, path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if prepare != nil {
		prepare(req)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe(node, err)
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// expect turns a response into an error unless its status is one of ok,
// and tells the breaker which it was.
func (c *peerClient) expect(node string, resp *http.Response, ok ...int) error {
	for _, code := range ok {
		if resp.StatusCode == code {
			c.observe(node, nil)
			return nil
		}
	}
	err := c.decodeFailure(resp)
	c.observe(node, err)
	return err
}

// putReplica streams one blob to a peer's local-only replica endpoint.
// The peer verifies the content hash against id and ingests locally; the
// returned body is the peer's IngestResult JSON. A non-empty replayer
// marks the write (replayerHeader).
func (c *peerClient) putReplica(ctx context.Context, node, id string, body io.Reader, size int64, replayer string) ([]byte, error) {
	resp, cancel, err := c.send(ctx, http.MethodPut, node, "/internal/v1/replicas/"+id, body, func(req *http.Request) {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/octet-stream")
		if replayer != "" {
			req.Header.Set(replayerHeader, replayer)
		}
	})
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if err := c.expect(node, resp, http.StatusOK, http.StatusCreated); err != nil {
		return nil, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

// putVerdict pushes the verdict of id (its JSON) to a peer that stores
// the archive and may be waiting for it.
func (c *peerClient) putVerdict(ctx context.Context, node, id string, verdict []byte) error {
	resp, cancel, err := c.send(ctx, http.MethodPut, node, "/internal/v1/verdicts/"+id, bytes.NewReader(verdict), func(req *http.Request) {
		req.Header.Set("Content-Type", "application/json")
	})
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return c.expect(node, resp, http.StatusNoContent)
}

// cancelBody keeps a streamed response's context deadline alive until
// the caller closes the body, then releases it.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// getReplica opens a streaming read of a peer's locally held blob. The
// caller must close the returned body; the client deadline covers the
// whole stream, so a peer dying mid-body unblocks the reader.
func (c *peerClient) getReplica(ctx context.Context, node, id string) (io.ReadCloser, int64, error) {
	resp, cancel, err := c.send(ctx, http.MethodGet, node, "/internal/v1/replicas/"+id, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := c.expect(node, resp, http.StatusOK); err != nil {
		resp.Body.Close()
		cancel()
		return nil, 0, err
	}
	return &cancelBody{ReadCloser: resp.Body, cancel: cancel}, resp.ContentLength, nil
}

// hasReplica asks a peer whether it locally holds id, without the bytes.
func (c *peerClient) hasReplica(ctx context.Context, node, id string) (bool, error) {
	resp, cancel, err := c.send(ctx, http.MethodHead, node, "/internal/v1/replicas/"+id, nil, nil)
	if err != nil {
		return false, err
	}
	defer cancel()
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if err := c.expect(node, resp, http.StatusOK, http.StatusNotFound); err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK, nil
}

// getMeta reads one report's metadata — its verdict included — from a
// peer's local state: the proxy read, and the pull half of verdict
// adoption.
func (c *peerClient) getMeta(ctx context.Context, node, id string) ([]byte, error) {
	resp, cancel, err := c.send(ctx, http.MethodGet, node, "/internal/v1/reports/"+id, nil, nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if err := c.expect(node, resp, http.StatusOK); err != nil {
		return nil, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// health probes a peer's liveness endpoint. It bypasses the breaker —
// the probe IS how an operator learns a shed peer's state — but still
// carries its own short deadline.
func (c *peerClient) health(ctx context.Context, node string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := newPeerRequest(ctx, http.MethodGet, node, "/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer: healthz %s", resp.Status)
	}
	return nil
}
