package httpjson

import (
	"net/http"
	"strings"
)

// APIPrefix is the versioned prefix of every public API path.
const APIPrefix = "/api/v1"

// Handle registers h under APIPrefix. pattern is "METHOD /path". Shared by
// every BugNet HTTP surface so the whole API moves versions in one place.
func Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("httpjson: pattern must be \"METHOD /path\": " + pattern)
	}
	mux.HandleFunc(method+" "+APIPrefix+path, h)
}
