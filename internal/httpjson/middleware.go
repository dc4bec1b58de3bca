package httpjson

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"bugnet/internal/obs"
)

var (
	mReqs = obs.Default.CounterVec("bugnet_http_requests_total",
		"HTTP requests served, by response status code.", "code")
	mLatency = obs.Default.Histogram("bugnet_http_request_seconds",
		"HTTP request service time.")
	mInFlight = obs.Default.Gauge("bugnet_http_in_flight",
		"HTTP requests currently being served.")
)

type ctxKey int

const requestIDKey ctxKey = 0

// RequestID returns the request id stamped by Instrument, or "" when the
// handler runs outside the middleware (direct tests).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// WithRequestID returns ctx carrying id as its request id — for work that
// outlives the request it came from (a replay job, a verdict push) and
// still makes peer calls on its behalf.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// statusWriter captures the response code for the metrics label and the
// access log line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Instrument wraps a handler with the observability boundary: a request
// id in the context and X-Request-ID header, request/latency/in-flight
// metrics, and one structured access-log line per request. A nil logger
// keeps the metrics and ids but logs nothing.
func Instrument(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		mInFlight.Inc()
		next.ServeHTTP(sw, r.WithContext(WithRequestID(r.Context(), id)))
		mInFlight.Dec()
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)
		mReqs.With(statusText(sw.code)).Inc()
		mLatency.Observe(elapsed)
		if logger != nil {
			logger.Info("http request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"code", sw.code,
				"duration", elapsed,
				"remote", r.RemoteAddr)
		}
	})
}

// statusText renders common status codes without allocating; the label
// set stays bounded because codes come from our own handlers.
func statusText(code int) string {
	switch code {
	case 200:
		return "200"
	case 201:
		return "201"
	case 202:
		return "202"
	case 204:
		return "204"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 409:
		return "409"
	case 413:
		return "413"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	return strconv.Itoa(code)
}
