package triage

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bugnet/internal/httpjson"
	"bugnet/internal/obs"
	"bugnet/internal/report"
	"bugnet/internal/timetravel"
)

// MaxUploadBytes bounds one archive upload. Field reports are the retained
// log window, which the recorder budgets to megabytes (paper §7.2); this
// is headroom, not a target.
const MaxUploadBytes = 64 << 20

// Pagination bounds for the listing endpoints: the server-side clamp
// keeps one request from serializing an unbounded store.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// Listing is the unified envelope of every paginated collection: a page
// of items plus an opaque cursor naming the next page ("" on the last).
// Clients must treat the cursor as a black box — the token encodes the
// store's current iteration order, which is free to change between
// releases without breaking pagination.
type Listing[T any] struct {
	Items      []T    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// Cursor tokens are versioned ("r1:"/"b1:") base64 so a format change
// invalidates old cursors loudly (400 bad_request) instead of silently
// mis-seeking.
func encodeCursor(token string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(token))
}

func decodeCursor(c string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(c)
	if err != nil {
		return "", fmt.Errorf("malformed cursor")
	}
	return string(raw), nil
}

// limitParam parses ?limit= with the server-side clamp.
func limitParam(r *http.Request) int {
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	return limit
}

// NewHandler exposes a Service over HTTP. The full surface:
//
//	POST /api/v1/reports        — upload one packed archive (201 new, 200 duplicate)
//	GET  /api/v1/reports        — report listing (?cursor=&limit=, id order)
//	GET  /api/v1/reports/{id}   — report metadata and verdict (?raw=1: the blob)
//	GET  /api/v1/buckets        — crash buckets (?cursor=&limit=, most-populated first)
//	GET  /api/v1/buckets/{key}  — one bucket
//	GET  /healthz               — liveness plus occupancy counters
//	GET  /readyz                — readiness (spool writable, capacity left)
//	GET  /metrics               — Prometheus exposition
//
// Failures all use the httpjson error envelope with stable codes. The
// handler is transport only; every decision lives in the Service, so
// tests drive it in-process with httptest and bugnet-serve just wraps it
// in http.ListenAndServe.
func NewHandler(s *Service) http.Handler {
	return newHandler(s, nil)
}

// NewHandlerWithDebug additionally mounts the remote-debug API
// (/api/v1/debug/sessions...) on the same handler — the wiring that turns
// stored field reports into interactive time-travel sessions.
func NewHandlerWithDebug(s *Service, debug *timetravel.Manager) http.Handler {
	return newHandler(s, debug)
}

func newHandler(s *Service, debug *timetravel.Manager) http.Handler {
	mux := http.NewServeMux()
	if debug != nil {
		timetravel.RegisterRoutes(mux, debug)
	}

	httpjson.Handle(mux, "POST /reports", func(w http.ResponseWriter, r *http.Request) {
		// A degraded store sheds instead of acking writes it would lose;
		// Healthy re-probes the disk so a healed fault restores service.
		if err := s.Healthy(); err != nil {
			httpjson.Fail(w, r, http.StatusServiceUnavailable, httpjson.CodeUnavailable,
				"store degraded: "+err.Error())
			return
		}
		// The body streams straight to the service's disk spool while it
		// is hashed — an upload's memory cost is a copy buffer, not the
		// archive, however large the recorded window was.
		res, err := s.IngestReader(http.MaxBytesReader(w, r.Body, MaxUploadBytes))
		if !WriteIngestError(w, r, err) {
			return
		}
		code := http.StatusCreated
		if res.Duplicate {
			code = http.StatusOK
		}
		httpjson.Write(w, code, res)
	})

	httpjson.Handle(mux, "GET /reports/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("raw") == "1" {
			ServeRaw(s, w, r, id)
			return
		}
		m, ok := s.Report(id)
		if !ok {
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such report")
			return
		}
		httpjson.Write(w, http.StatusOK, m)
	})

	httpjson.Handle(mux, "GET /reports", func(w http.ResponseWriter, r *http.Request) {
		after := ""
		if c := r.URL.Query().Get("cursor"); c != "" {
			token, err := decodeCursor(c)
			if err != nil || !strings.HasPrefix(token, "r1:") {
				httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, "invalid cursor")
				return
			}
			after = token[len("r1:"):]
		}
		limit := limitParam(r)
		items, more := s.ReportsCursor(after, limit)
		out := Listing[ReportMeta]{Items: items}
		if more {
			out.NextCursor = encodeCursor("r1:" + items[len(items)-1].ID)
		}
		httpjson.Write(w, http.StatusOK, out)
	})

	httpjson.Handle(mux, "GET /buckets", func(w http.ResponseWriter, r *http.Request) {
		var afterCount int
		var afterKey string
		haveAfter := false
		if c := r.URL.Query().Get("cursor"); c != "" {
			token, err := decodeCursor(c)
			if err != nil || !strings.HasPrefix(token, "b1:") {
				httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, "invalid cursor")
				return
			}
			countStr, key, ok := strings.Cut(token[len("b1:"):], ":")
			n, convErr := strconv.Atoi(countStr)
			if !ok || convErr != nil {
				httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, "invalid cursor")
				return
			}
			afterCount, afterKey, haveAfter = n, key, true
		}
		limit := limitParam(r)
		items, more := s.BucketsCursor(afterCount, afterKey, haveAfter, limit)
		out := Listing[Bucket]{Items: items}
		if more {
			last := items[len(items)-1]
			out.NextCursor = encodeCursor(fmt.Sprintf("b1:%d:%s", last.Count, last.Key))
		}
		httpjson.Write(w, http.StatusOK, out)
	})

	httpjson.Handle(mux, "GET /buckets/{key}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.Bucket(r.PathValue("key"))
		if !ok {
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such bucket")
			return
		}
		httpjson.Write(w, http.StatusOK, b)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Store().Stats()
		status, code := "ok", http.StatusOK
		body := map[string]any{
			"reports":        st.RetainedCount,
			"retained_bytes": st.RetainedBytes,
			"evicted":        st.EvictedCount,
			"buckets":        s.BucketCount(),
			"pending":        s.Pending(),
		}
		if err := s.Healthy(); err != nil {
			// The store has seen a disk failure the re-probe could not
			// clear: the process is up but evidence is being lost —
			// degraded, so orchestrators restart (or drain) it.
			status, code = "degraded", http.StatusServiceUnavailable
			body["error"] = err.Error()
		}
		body["status"] = status
		httpjson.Write(w, code, body)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is stricter than liveness: can this instance take an
		// upload (spool writable, store healthy) and open a debug session
		// (capacity left) right now? Each failing condition contributes a
		// structured reason so operators see why traffic is being shed.
		WriteReadiness(w, ReadyReasons(s, debug))
	})

	mux.Handle("GET /metrics", obs.Handler())

	return mux
}

// Readiness is the structured document GET /readyz serves: ready, or
// not with the reasons traffic is being shed.
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// ReadyReasons collects every reason this instance should not take
// traffic — the service-level conditions plus debug-session saturation.
// The cluster layer reuses it (appending peer-level reasons) so a
// node's /readyz means the same thing with or without a ring.
func ReadyReasons(s *Service, debug *timetravel.Manager) []string {
	reasons := s.ReadyReasons()
	if debug != nil {
		if open, max := debug.Capacity(); open >= max {
			reasons = append(reasons, fmt.Sprintf("debug sessions at capacity (%d/%d)", open, max))
		}
	}
	return reasons
}

// WriteReadiness serves a readiness document: 200 when no reasons
// remain, 503 listing them otherwise.
func WriteReadiness(w http.ResponseWriter, reasons []string) {
	code := http.StatusOK
	if len(reasons) > 0 {
		code = http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, Readiness{Ready: len(reasons) == 0, Reasons: reasons})
}

// WriteIngestError maps an ingest failure onto the error envelope,
// reporting whether the caller may proceed (err was nil). Shared with the
// cluster layer so the coordinator's local writes and a single node's
// direct ingest fail identically on the wire.
func WriteIngestError(w http.ResponseWriter, r *http.Request, err error) bool {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpjson.Fail(w, r, http.StatusRequestEntityTooLarge, httpjson.CodeTooLarge, "report exceeds upload limit")
	case errors.Is(err, ErrClosed):
		httpjson.Fail(w, r, http.StatusServiceUnavailable, httpjson.CodeUnavailable, err.Error())
	case errors.Is(err, report.ErrBadArchive):
		// Unpack rejected it: the client sent garbage, not us.
		httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, err.Error())
	default:
		// Store I/O failure (disk full, permissions): our fault, and a
		// 4xx would make a well-behaved recorder discard the report
		// instead of retrying.
		httpjson.Fail(w, r, http.StatusInternalServerError, httpjson.CodeInternal, err.Error())
	}
	return false
}

// ServeRaw streams one stored blob from the store file, pinned so
// eviction cannot delete it mid-download — a download's memory cost is a
// copy buffer, not the archive. The cluster layer calls it for locally
// held replicas.
func ServeRaw(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	if !s.Store().Pin(id) {
		httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no stored report "+id)
		return
	}
	defer s.Store().Unpin(id)
	path, ok := s.Store().Path(id)
	if !ok {
		httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no stored report "+id)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpjson.Fail(w, r, http.StatusInternalServerError, httpjson.CodeInternal, err.Error())
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, id+".bnar", time.Time{}, f)
}
