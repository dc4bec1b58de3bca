package httpjson

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestFailEnvelope(t *testing.T) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/x", nil)
	Fail(w, r, http.StatusNotFound, CodeNotFound, "no such thing")
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d", w.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeNotFound || env.Error.Message != "no such thing" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestOverloadedRetryAfter(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"}, // rounds up: never tell a client to retry early
		{10 * time.Millisecond, "1"},   // floor of 1s
		{3 * time.Second, "3"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/reports", nil)
		Overloaded(w, r, c.d, "busy")
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("%v: status %d", c.d, w.Code)
		}
		if got := w.Header().Get("Retry-After"); got != c.want {
			t.Fatalf("%v: Retry-After = %q, want %q", c.d, got, c.want)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != CodeOverloaded {
			t.Fatalf("%v: code = %q", c.d, env.Error.Code)
		}
	}
}

func TestDecodeErrorBothShapes(t *testing.T) {
	body, ok := DecodeError([]byte(`{"error":{"code":"not_found","message":"gone","request_id":"r1"}}`))
	if !ok || body.Code != "not_found" || body.Message != "gone" || body.RequestID != "r1" {
		t.Fatalf("new shape: ok=%v body=%+v", ok, body)
	}
	if _, ok := DecodeError([]byte(`{"error":"bare message"}`)); ok {
		t.Fatal("pre-envelope {\"error\": \"msg\"} shape decoded as an error body")
	}
	if _, ok := DecodeError([]byte("not json at all")); ok {
		t.Fatal("junk decoded as an error body")
	}
	if _, ok := DecodeError(nil); ok {
		t.Fatal("empty body decoded as an error body")
	}
}

func TestCodeForStatus(t *testing.T) {
	cases := map[int]string{
		http.StatusNotFound:              CodeNotFound,
		http.StatusTooManyRequests:       CodeOverloaded,
		http.StatusBadRequest:            CodeBadRequest,
		http.StatusServiceUnavailable:    CodeUnavailable,
		http.StatusInternalServerError:   CodeInternal,
		http.StatusRequestEntityTooLarge: CodeTooLarge,
	}
	for status, want := range cases {
		if got := CodeForStatus(status); got != want {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestHandleRegistersVersionedPath(t *testing.T) {
	mux := http.NewServeMux()
	Handle(mux, "GET /things/{id}", func(w http.ResponseWriter, r *http.Request) {
		Write(w, http.StatusOK, map[string]string{"id": r.PathValue("id")})
	})
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/things/42", nil))
	var got map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &got); w.Code != http.StatusOK || err != nil || got["id"] != "42" {
		t.Fatalf("GET /api/v1/things/42: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/things/42", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET /things/42 (unversioned): %d; want 404", w.Code)
	}
}
