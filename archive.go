package bugnet

import (
	"io"

	"bugnet/internal/fll"
	"bugnet/internal/mrl"
	"bugnet/internal/report"
)

// FLL is a First-Load Log: one checkpoint interval of one thread.
type FLL = fll.Log

// MRL is a Memory Race Log paired with an FLL.
type MRL = mrl.Log

// FLLRef is a lazy view of a First-Load Log: metadata decoded, the entry
// stream materialized from its backing store (memory, spill segment,
// report archive) only while its interval replays.
type FLLRef = fll.Ref

// MRLRef is a lazy view of a Memory Race Log.
type MRLRef = mrl.Ref

// ErrBadArchive reports a structurally invalid packed report archive.
var ErrBadArchive = report.ErrBadArchive

// PackReport encodes a crash report as a single uploadable archive blob:
// CRC-framed sections carrying the report metadata and every FLL and MRL
// in their wire formats. Packing is deterministic, so identical reports
// produce identical bytes (and therefore identical ReportIDs).
func PackReport(rep *CrashReport) ([]byte, error) { return report.Pack(rep) }

// PackReportTo streams the archive into w, copying each log's encoded
// section straight from its view — at most one section in memory, so a
// disk-spilled window uploads without ever being materialized whole.
func PackReportTo(w io.Writer, rep *CrashReport) error { return report.PackTo(w, rep) }

// UnpackReport decodes an archive produced by PackReport, validating all
// framing and checksums before any log is decoded. The report reads its
// logs where they lie in data, which must not change while it is in use.
func UnpackReport(data []byte) (*CrashReport, error) { return report.Unpack(data) }

// ReportID returns the content address of a packed archive (hex SHA-256),
// the ID under which a triage server stores and deduplicates it.
func ReportID(data []byte) string { return report.ID(data) }
