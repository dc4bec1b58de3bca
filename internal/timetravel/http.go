package timetravel

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"bugnet/internal/httpjson"
)

// maxBodyBytes bounds one debug-API request body; commands and session
// opens are tiny JSON documents.
const maxBodyBytes = 1 << 16

// OpenRequest is the body of POST /api/v1/debug/sessions.
type OpenRequest struct {
	// Report is the stored report id (content address) to debug.
	Report string `json:"report"`
	// TID selects the thread; omitted or negative picks the crashing one.
	TID *int `json:"tid,omitempty"`
}

// RegisterRoutes installs the remote-debug API onto mux:
//
//	POST   /api/v1/debug/sessions           — open a session over a stored report
//	GET    /api/v1/debug/sessions           — list live sessions
//	GET    /api/v1/debug/sessions/{id}      — one session's state
//	POST   /api/v1/debug/sessions/{id}/cmd  — execute one Command
//	DELETE /api/v1/debug/sessions/{id}      — close a session
//
// Failures use the standardized httpjson error envelope. The routes are
// transport only; every decision lives in Manager and Engine, so tests
// drive them in-process and bugnet-serve mounts them next to the triage
// API.
func RegisterRoutes(mux *http.ServeMux, m *Manager) {
	httpjson.Handle(mux, "POST /debug/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req OpenRequest
		if err := readJSON(w, r, &req); err != nil {
			httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, err.Error())
			return
		}
		if req.Report == "" {
			httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, "missing report id")
			return
		}
		tid := -1
		if req.TID != nil {
			tid = *req.TID
		}
		s, err := m.Open(req.Report, tid)
		switch {
		case errors.Is(err, ErrUnknownReport):
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, err.Error())
			return
		case errors.Is(err, ErrSessionLimit):
			httpjson.Fail(w, r, http.StatusTooManyRequests, httpjson.CodeOverloaded, err.Error())
			return
		case errors.Is(err, ErrClosed):
			httpjson.Fail(w, r, http.StatusServiceUnavailable, httpjson.CodeUnavailable, err.Error())
			return
		case err != nil:
			// Undecodable report, unknown binary, oversized window: the
			// request named something we cannot debug.
			httpjson.Fail(w, r, http.StatusUnprocessableEntity, httpjson.CodeUnprocessable, err.Error())
			return
		}
		info, _ := m.Info(s.ID)
		httpjson.Write(w, http.StatusCreated, info)
	})

	httpjson.Handle(mux, "GET /debug/sessions", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, m.List())
	})

	httpjson.Handle(mux, "GET /debug/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Info(r.PathValue("id"))
		if !ok {
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such session")
			return
		}
		httpjson.Write(w, http.StatusOK, info)
	})

	httpjson.Handle(mux, "POST /debug/sessions/{id}/cmd", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such session")
			return
		}
		var cmd Command
		if err := readJSON(w, r, &cmd); err != nil {
			httpjson.Fail(w, r, http.StatusBadRequest, httpjson.CodeBadRequest, err.Error())
			return
		}
		httpjson.Write(w, http.StatusOK, s.Do(cmd))
	})

	httpjson.Handle(mux, "DELETE /debug/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !m.CloseSession(r.PathValue("id")) {
			httpjson.Fail(w, r, http.StatusNotFound, httpjson.CodeNotFound, "no such session")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
