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

// RegisterRoutes installs what only the triage service serves onto mux:
//
//	GET  /api/v1/reports        — report listing (?cursor=&limit=, id order)
//	GET  /api/v1/buckets        — crash buckets (?cursor=&limit=, most-populated first)
//	GET  /api/v1/buckets/{key}  — one bucket
//	GET  /healthz               — liveness plus occupancy counters
//	GET  /metrics               — Prometheus exposition
//
// Uploads, per-report reads and readiness belong to the node that wraps
// the service (cluster.(*Node).Handler builds the one mux and calls this).
// Failures all use the httpjson error envelope with stable codes.
func RegisterRoutes(mux *http.ServeMux, s *Service) {
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

	mux.Handle("GET /metrics", obs.Handler())
}

// WriteIngestError maps an ingest failure onto the error envelope,
// reporting whether the caller may proceed (err was nil). The cluster
// layer's replica writes answer with it.
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
	path, ok := s.Store().Pin(id)
	if !ok {
		httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no stored report "+id)
		return
	}
	defer s.Store().Unpin(id)
	f, err := os.Open(path)
	if err != nil {
		httpjson.Fail(w, r, http.StatusInternalServerError, httpjson.CodeInternal, err.Error())
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, id+".bnar", time.Time{}, f)
}
