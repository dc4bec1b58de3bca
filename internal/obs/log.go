package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
)

// NewLogger builds the shared structured logger: "text" for humans on a
// terminal, "json" for log shippers. Every daemon and CLI routes its
// diagnostics through one of these (the -log-format flag) instead of
// bare fmt.Fprintf(os.Stderr, ...), so fleet log pipelines see one
// schema.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

// discard is the handler behind Logger until a daemon calls SetLogger:
// it reports every level disabled, so an unconfigured process (tests,
// benchmarks, the in-process clusters) pays one branch per log line.
type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }

var logger atomic.Pointer[slog.Logger]

func init() { logger.Store(slog.New(discard{})) }

// Logger is the process-wide structured logger for the lines no HTTP
// request owns — a replay worker's verdict, an adopted verdict. Like
// Default it is shared by every subsystem in the process; it discards
// until SetLogger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger routes Logger's lines to l (bugnet-serve passes the logger
// its -log-format flag built).
func SetLogger(l *slog.Logger) { logger.Store(l) }

// reqSeq breaks ties if the system's entropy source ever fails: the id
// degrades to a process-unique sequence number instead of a panic on the
// request path.
var reqSeq atomic.Uint64

// NewRequestID returns a 16-hex-char id for correlating one request's
// log lines across layers. The HTTP middleware stamps it into the
// request context and the X-Request-ID response header.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%016x", reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}
