// Package report implements the crash-report archive (BNAR): the one
// on-disk and on-the-wire form of a crash report, which the recorder
// writes, the replay tools open, and a triage service stores (paper §4.8).
// The archive flattens one CrashReport into a single self-describing byte
// stream:
//
//	magic "BNAR" | version (1 byte) | section count (u32)
//	section*:  kind (1 byte) | length (u32) | payload | CRC32(kind‖length‖payload)
//
// Section kinds: 'M' (exactly one, first) holds the report metadata as
// JSON — PID, BinaryID, the crash record, and the recording log-region
// stats; 'F' and 'R' sections carry one fll.Log / mrl.Log each in their
// existing Marshal wire formats, which embed their own TID/CID and a
// second, inner checksum. Every section is independently CRC-framed so
// truncation or corruption is localized at decode time, before any log is
// replayed.
//
// I/O is streaming in both directions. PackTo copies each log's encoded
// section straight from its lazy view into the writer — nothing is
// re-encoded and at most one section is in memory at a time. An Archive
// (OpenReaderAt / OpenFile) scans and CRC-validates the sections once,
// then serves a CrashReport of lazy views that re-read their payloads
// from the underlying source on demand, so replaying a multi-gigabyte
// report from disk never loads the whole archive.
//
// Pack is deterministic (threads ascending, logs in recording order), so
// the SHA-256 of the packed bytes is a stable content address: the same
// crash window recorded at the same customer site always produces the same
// ID, which is what lets the triage store deduplicate identical uploads.
package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"bugnet/internal/core"
	"bugnet/internal/cpu"
	"bugnet/internal/fll"
	"bugnet/internal/kernel"
	"bugnet/internal/logstore"
	"bugnet/internal/mrl"
)

var magic = [4]byte{'B', 'N', 'A', 'R'}

const version = 1

// Section kinds.
const (
	kindMeta = 'M'
	kindFLL  = 'F'
	kindMRL  = 'R'
)

// MaxSections bounds the section count a decoder will accept, limiting
// allocation from a hostile header before any payload is validated.
const MaxSections = 1 << 20

// maxTID bounds the thread ids a decoder will accept. Downstream replay
// allocates per-thread state indexed by TID and the race detector's
// vector clocks are O(threads²), so the bound must be small enough that
// even the quadratic cost is trivial: 64 threads is 8× the largest
// simulated machine while capping the detector at a few KB.
const maxTID = 64

// ErrBadArchive reports a structurally invalid archive.
var ErrBadArchive = errors.New("report: bad archive")

// meta is the flattened report metadata carried by the 'M' section:
// identity, crash record, and the recording options replay must match
// (paper §5.1) — without those a receiver replaying a LogCodeLoads
// recording would misalign the log stream and mislabel every such report
// as diverged.
type meta struct {
	PID             uint32        `json:"pid"`
	Binary          core.BinaryID `json:"binary"`
	LogCodeLoads    bool          `json:"log_code_loads,omitempty"`
	DictCounterBits int           `json:"dict_counter_bits,omitempty"`
	DictInsertTop   bool          `json:"dict_insert_top,omitempty"`
	Crash           *metaCrash    `json:"crash,omitempty"`
	// FLLStats and MRLStats carry the recording log regions' occupancy
	// and eviction counters: how much window the report covers and how
	// much the recorder's budget discarded before collection.
	FLLStats *logstore.Stats `json:"fll_stats,omitempty"`
	MRLStats *logstore.Stats `json:"mrl_stats,omitempty"`
}

// metaCrash flattens kernel.CrashInfo for stable JSON.
type metaCrash struct {
	TID   int    `json:"tid"`
	Cause uint8  `json:"cause"`
	PC    uint32 `json:"pc"`
	Addr  uint32 `json:"addr"`
	IC    uint64 `json:"ic"`
}

// metaOf flattens a report's metadata.
func metaOf(rep *core.CrashReport) meta {
	m := meta{
		PID:             rep.PID,
		Binary:          rep.Binary,
		LogCodeLoads:    rep.LogCodeLoads,
		DictCounterBits: rep.DictOptions.CounterBits,
		DictInsertTop:   rep.DictOptions.InsertAtTop,
	}
	if rep.Crash != nil && rep.Crash.Fault != nil {
		m.Crash = &metaCrash{
			TID:   rep.Crash.TID,
			Cause: uint8(rep.Crash.Fault.Cause),
			PC:    rep.Crash.Fault.PC,
			Addr:  rep.Crash.Fault.Addr,
			IC:    rep.Crash.Fault.IC,
		}
	}
	if rep.FLLStats != (logstore.Stats{}) {
		st := rep.FLLStats
		m.FLLStats = &st
	}
	if rep.MRLStats != (logstore.Stats{}) {
		st := rep.MRLStats
		m.MRLStats = &st
	}
	return m
}

// apply restores the flattened metadata onto a report.
func (m meta) apply(rep *core.CrashReport) {
	rep.PID = m.PID
	rep.Binary = m.Binary
	rep.LogCodeLoads = m.LogCodeLoads
	rep.DictOptions.CounterBits = m.DictCounterBits
	rep.DictOptions.InsertAtTop = m.DictInsertTop
	if m.Crash != nil {
		rep.Crash = &kernel.CrashInfo{
			TID: m.Crash.TID,
			Fault: &cpu.FaultInfo{
				Cause: cpu.FaultCause(m.Crash.Cause),
				PC:    m.Crash.PC,
				Addr:  m.Crash.Addr,
				IC:    m.Crash.IC,
			},
		}
	}
	if m.FLLStats != nil {
		rep.FLLStats = *m.FLLStats
	}
	if m.MRLStats != nil {
		rep.MRLStats = *m.MRLStats
	}
}

// threadIDs returns the sorted union of threads with retained FLLs or
// MRLs. The union matters: the two log kinds are evicted from separately
// budgeted stores, so a thread can retain MRLs after its FLLs aged out,
// and those ordering constraints must survive serialization.
func threadIDs(rep *core.CrashReport) []int {
	tids := make([]int, 0, len(rep.FLLs))
	seen := make(map[int]bool)
	for tid := range rep.FLLs {
		tids = append(tids, tid)
		seen[tid] = true
	}
	for tid := range rep.MRLs {
		if !seen[tid] {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	return tids
}

// writeSection streams one CRC-framed section.
func writeSection(w io.Writer, kind byte, payload []byte) error {
	var head [5]byte
	head[0] = kind
	binary.LittleEndian.PutUint32(head[1:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(head[:])
	crc.Write(payload)
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// PackTo streams a crash report into w as a single archive: the metadata
// section, then every log's encoded bytes copied straight from its view —
// at most one section is held in memory at a time, so a disk-spilled
// window packs in O(largest section) memory. The byte stream is
// deterministic: packing the same report twice yields identical bytes.
func PackTo(w io.Writer, rep *core.CrashReport) error {
	cw := &countingWriter{w: w}
	w = cw
	defer func() {
		mPacks.Inc()
		mPackBytes.Add(cw.n)
	}()
	mj, err := json.Marshal(metaOf(rep))
	if err != nil {
		return err
	}

	tids := threadIDs(rep)

	sections := uint32(1)
	for _, tid := range tids {
		sections += uint32(len(rep.FLLs[tid]) + len(rep.MRLs[tid]))
	}

	var hdr [9]byte
	copy(hdr[:4], magic[:])
	hdr[4] = version
	binary.LittleEndian.PutUint32(hdr[5:], sections)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeSection(w, kindMeta, mj); err != nil {
		return err
	}
	for _, tid := range tids {
		for _, l := range rep.FLLs[tid] {
			data, err := l.Encoded()
			if err != nil {
				return fmt.Errorf("report: FLL T%d C%d: %w", tid, l.CID, err)
			}
			if err := writeSection(w, kindFLL, data); err != nil {
				return err
			}
		}
		for _, l := range rep.MRLs[tid] {
			data, err := l.Encoded()
			if err != nil {
				return fmt.Errorf("report: MRL T%d C%d: %w", tid, l.CID, err)
			}
			if err := writeSection(w, kindMRL, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Pack encodes a crash report as a single archive blob in memory; see
// PackTo for the streaming form.
func Pack(rep *core.CrashReport) ([]byte, error) {
	var buf bytes.Buffer
	if err := PackTo(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Section describes one archive section for inspection tools: its kind,
// the log identity it carries, and its encoded payload size.
type Section struct {
	Kind byte
	// TID and CID identify the log ('F'/'R' sections; meta reports -1/0).
	TID int
	CID uint32
	// Offset and Len locate the payload within the archive.
	Offset int64
	Len    int
}

// section is the reader's internal index entry: Section plus the parsed
// log metadata the lazy views are built from.
type section struct {
	Section
	fmeta *fll.Meta
	rmeta *mrl.Meta
}

// Archive is an opened report archive: framing and checksums validated,
// section payloads left in place and served lazily. It stays readable for
// as long as the underlying source does; Close releases a source the
// archive owns (OpenFile).
type Archive struct {
	src    io.ReaderAt
	closer io.Closer
	meta   meta
	secs   []section
}

// OpenBytes opens an archive held in memory.
func OpenBytes(data []byte) (*Archive, error) {
	return OpenReaderAt(bytes.NewReader(data), int64(len(data)))
}

// OpenFile opens an archive file; the returned Archive owns the handle
// and must be Closed. A directory is refused with an error naming it.
func OpenFile(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.IsDir() {
		err = fmt.Errorf("%w: %s is a directory", ErrBadArchive, path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	a, err := OpenReaderAt(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	a.closer = f
	return a, nil
}

// OpenReaderAt scans and validates an archive in src, reading each
// section once for its checksum and its metadata. Payloads are not
// retained; Report hands out lazy views that re-read them on demand.
func OpenReaderAt(src io.ReaderAt, size int64) (a *Archive, err error) {
	defer func() { countOpen(err) }()
	return openReaderAt(src, size)
}

func openReaderAt(src io.ReaderAt, size int64) (*Archive, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadArchive)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: missing magic", ErrBadArchive)
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadArchive, hdr[4])
	}
	sections := binary.LittleEndian.Uint32(hdr[5:9])
	if sections == 0 || sections > MaxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrBadArchive, sections)
	}

	a := &Archive{src: src}
	pos := int64(9)
	haveMeta := false
	for i := uint32(0); i < sections; i++ {
		var head [5]byte
		if size-pos < 9 {
			return nil, fmt.Errorf("%w: truncated at section %d", ErrBadArchive, i)
		}
		if _, err := src.ReadAt(head[:], pos); err != nil {
			return nil, fmt.Errorf("%w: truncated at section %d", ErrBadArchive, i)
		}
		kind := head[0]
		n32 := binary.LittleEndian.Uint32(head[1:5])
		// Compare widths carefully: on 32-bit platforms int(n32) could go
		// negative and sail past a signed bounds check into a slice panic.
		if uint64(n32) > uint64(size-pos-9) {
			return nil, fmt.Errorf("%w: section %d length %d exceeds payload", ErrBadArchive, i, n32)
		}
		n := int(n32)
		payload := make([]byte, n)
		if _, err := src.ReadAt(payload, pos+5); err != nil {
			return nil, fmt.Errorf("%w: section %d unreadable: %v", ErrBadArchive, i, err)
		}
		var sumBuf [4]byte
		if _, err := src.ReadAt(sumBuf[:], pos+5+int64(n)); err != nil {
			return nil, fmt.Errorf("%w: section %d unreadable: %v", ErrBadArchive, i, err)
		}
		crc := crc32.NewIEEE()
		crc.Write(head[:])
		crc.Write(payload)
		if crc.Sum32() != binary.LittleEndian.Uint32(sumBuf[:]) {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrBadArchive, i)
		}

		sec := section{Section: Section{Kind: kind, TID: -1, Offset: pos + 5, Len: n}}
		switch kind {
		case kindMeta:
			if haveMeta {
				return nil, fmt.Errorf("%w: duplicate metadata section", ErrBadArchive)
			}
			if err := json.Unmarshal(payload, &a.meta); err != nil {
				return nil, fmt.Errorf("%w: metadata: %v", ErrBadArchive, err)
			}
			haveMeta = true
		case kindFLL:
			m, err := fll.ParseMeta(payload)
			if err != nil {
				return nil, fmt.Errorf("%w: section %d: %v", ErrBadArchive, i, err)
			}
			if m.TID > maxTID {
				return nil, fmt.Errorf("%w: section %d: implausible thread id %d", ErrBadArchive, i, m.TID)
			}
			sec.TID, sec.CID, sec.fmeta = int(m.TID), m.CID, &m
		case kindMRL:
			m, err := mrl.ParseMeta(payload)
			if err != nil {
				return nil, fmt.Errorf("%w: section %d: %v", ErrBadArchive, i, err)
			}
			if m.TID > maxTID {
				return nil, fmt.Errorf("%w: section %d: implausible thread id %d", ErrBadArchive, i, m.TID)
			}
			sec.TID, sec.CID, sec.rmeta = int(m.TID), m.CID, &m
		default:
			return nil, fmt.Errorf("%w: unknown section kind %#x", ErrBadArchive, kind)
		}
		a.secs = append(a.secs, sec)
		pos += 9 + int64(n)
	}
	if pos != size {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadArchive, size-pos)
	}
	if !haveMeta {
		return nil, fmt.Errorf("%w: no metadata section", ErrBadArchive)
	}
	return a, nil
}

// Close releases an owned source (no-op for OpenBytes archives).
func (a *Archive) Close() error {
	if a.closer != nil {
		err := a.closer.Close()
		a.closer = nil
		return err
	}
	return nil
}

// Sections returns the validated section index in archive order.
func (a *Archive) Sections() []Section {
	out := make([]Section, len(a.secs))
	for i := range a.secs {
		out[i] = a.secs[i].Section
	}
	return out
}

// loadSection re-reads one section payload from the source.
func (a *Archive) loadSection(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := a.src.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("report: re-reading archive section: %w", err)
	}
	return buf, nil
}

// Report assembles the crash report: metadata applied, every log a lazy
// view reading its section from the archive source on demand. The report
// is valid only while the archive's source remains readable.
func (a *Archive) Report() *core.CrashReport {
	rep := &core.CrashReport{
		FLLs: make(map[int][]*fll.Ref),
		MRLs: make(map[int][]*mrl.Ref),
	}
	a.meta.apply(rep)
	for i := range a.secs {
		sec := a.secs[i]
		load := func() ([]byte, error) { return a.loadSection(sec.Offset, sec.Len) }
		switch {
		case sec.fmeta != nil:
			rep.FLLs[sec.TID] = append(rep.FLLs[sec.TID], fll.NewLazyRef(*sec.fmeta, int64(sec.Len), load))
		case sec.rmeta != nil:
			rep.MRLs[sec.TID] = append(rep.MRLs[sec.TID], mrl.NewLazyRef(*sec.rmeta, int64(sec.Len), load))
		}
	}
	return rep
}

// Unpack decodes an archive produced by Pack, validating the framing and
// every section checksum before any log payload is trusted. The returned
// report's views retain data.
func Unpack(data []byte) (*core.CrashReport, error) {
	a, err := OpenBytes(data)
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// ID returns the content address of a packed archive: the hex SHA-256 of
// its bytes. Because Pack is deterministic, identical reports share an ID.
func ID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ValidID reports whether id has the form ID returns: 64 lower-case hex
// digits. Ids arrive in URL paths and file names, so every site that
// turns one into a path, or trusts a file named by one, checks it here.
func ValidID(id string) bool {
	b, err := hex.DecodeString(id)
	return err == nil && len(b) == sha256.Size && hex.EncodeToString(b) == id
}
