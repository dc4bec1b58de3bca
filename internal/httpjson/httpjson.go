// Package httpjson holds the JSON response helpers shared by the BugNet
// HTTP surfaces (triage API, remote-debug API, cluster proxy). Keeping
// them in one place keeps the error envelope wire-compatible across
// endpoints; clients like bugnet-debug parse it uniformly.
//
// Every failure is one envelope:
//
//	{"error": {"code": "not_found", "message": "...", "request_id": "..."}}
//
// The code is a stable machine-readable string from the small set below —
// clients branch on it, never on the human-readable message. The
// request_id echoes the X-Request-ID the Instrument middleware stamped,
// so a client-side error report names the exact server-side log lines.
package httpjson

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Stable error codes. These are API surface: clients switch on them, so
// renaming one is a breaking change.
const (
	// CodeBadRequest: the request itself is malformed (bad JSON, bad
	// parameters, an archive that does not decode).
	CodeBadRequest = "bad_request"
	// CodeNotFound: the named report, bucket, or session does not exist.
	CodeNotFound = "not_found"
	// CodeTooLarge: the upload exceeds the per-request byte limit.
	CodeTooLarge = "too_large"
	// CodeOverloaded: admission control shed the request; retry after the
	// Retry-After header's delay.
	CodeOverloaded = "overloaded"
	// CodeReplicaUnavailable: the cluster could not reach enough replica
	// owners to satisfy the operation (quorum write or replicated read).
	CodeReplicaUnavailable = "replica_unavailable"
	// CodeUnprocessable: the request is well-formed but names something
	// the server cannot act on (undecodable report, unknown binary).
	CodeUnprocessable = "unprocessable"
	// CodeUnavailable: the service is shutting down or degraded.
	CodeUnavailable = "unavailable"
	// CodeInternal: our fault — disk failure, unexpected error. Clients
	// should retry; the evidence was not rejected.
	CodeInternal = "internal"
)

// ErrorBody is the inner object of the error envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope is the standardized failure response body.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Write encodes v as the response body with the given status code.
func Write(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Fail writes the standardized error envelope. The request supplies the
// request id (stamped by Instrument; empty outside the middleware) so
// every failure names its server-side log lines.
func Fail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	var id string
	if r != nil {
		id = RequestID(r.Context())
	}
	Write(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg, RequestID: id}})
}

// Overloaded sheds one request: 429 with a Retry-After header telling the
// client when the spool is expected to have drained. The delay is rounded
// up to whole seconds (the header's unit); zero or negative becomes 1.
func Overloaded(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, msg string) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	Fail(w, r, http.StatusTooManyRequests, CodeOverloaded, msg)
}

// CodeForStatus maps an HTTP status to the default error code handlers
// use when they have nothing more specific — it keeps proxied upstream
// failures inside the envelope's code vocabulary.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeBadRequest
}

// DecodeError parses an error-envelope body (as produced by Fail),
// returning the inner body. ok reports whether anything was parsed.
func DecodeError(data []byte) (ErrorBody, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && (env.Error.Message != "" || env.Error.Code != "") {
		return env.Error, true
	}
	return ErrorBody{}, false
}
