// Package mrl implements BugNet's Memory Race Log (paper §4.6).
//
// On a directory-based shared-memory multiprocessor, every coherence reply
// (write-invalidation acknowledgment, or data reply from a modified remote
// copy) carries the remote thread's execution state. The local thread logs
//
//	(local.IC, remote.TID, remote.CID, remote.IC)
//
// meaning: the local thread's operation at local.IC (counted within its
// current checkpoint interval) happened after the remote thread committed
// remote.IC instructions into its interval remote.CID. Checkpoints are
// asynchronous across threads (paper §4.6.2), which is why every entry
// carries the remote checkpoint id.
//
// The Reducer implements the vector-clock formulation of Netzer's
// transitive-reduction optimization (paper §4.6.3 adopts it from FDR): an
// ordering edge already implied by previously logged edges is not logged.
package mrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Header identifies the thread and checkpoint interval an MRL belongs to,
// mirroring the FLL header fields used for pairing (paper §4.6.3).
type Header struct {
	PID       uint32
	TID       uint32
	CID       uint32
	Timestamp uint64
}

// Entry is one logged ordering constraint.
type Entry struct {
	LocalIC   uint64 // instructions committed in the local interval
	RemoteTID uint32
	RemoteCID uint32
	RemoteIC  uint64 // instructions committed in the remote interval
}

// Meta is everything a Memory Race Log records except the entries
// themselves; a Ref holds it decoded so ordering-constraint consumers can
// size and pair logs without materializing their entry lists.
type Meta struct {
	Header

	// IntervalLimit and MaxThreads fix the bit widths used for size
	// accounting, matching the paper's field sizing discussion.
	IntervalLimit uint64
	MaxThreads    uint32

	// NumEntries is the number of logged ordering constraints.
	NumEntries uint64
}

// Log is a finalized Memory Race Log for one checkpoint interval.
type Log struct {
	Meta
	Entries []Entry
}

// headerBytes is the serialized header cost.
const headerBytes = 3*4 + 8

// bitsFor returns the width needed to represent values in [0, n].
func bitsFor(n uint64) uint {
	w := uint(1)
	for 1<<w <= n {
		w++
	}
	return w
}

// EntryBits returns the bit width of one packed entry given the log's
// geometry: local.IC and remote.IC need log2(interval length) bits,
// remote.TID log2(max live threads), remote.CID a fixed 16 bits (bounded
// by how many checkpoints fit in memory, paper §4.2).
func (m *Meta) EntryBits() uint {
	icBits := bitsFor(m.IntervalLimit)
	tidBits := bitsFor(uint64(m.MaxThreads))
	return 2*icBits + tidBits + 16
}

// SizeBytes returns the storage footprint of the log.
func (m *Meta) SizeBytes() int64 {
	bits := m.NumEntries * uint64(m.EntryBits())
	return headerBytes + int64((bits+7)/8) + 8 // +8: entry count
}

// Writer accumulates MRL entries for one checkpoint interval.
type Writer struct {
	hdr           Header
	intervalLimit uint64
	maxThreads    uint32
	entries       []Entry
}

// NewWriter starts an MRL.
func NewWriter(hdr Header, intervalLimit uint64, maxThreads uint32) *Writer {
	if intervalLimit == 0 || maxThreads == 0 {
		panic("mrl: interval limit and max threads must be positive")
	}
	return &Writer{hdr: hdr, intervalLimit: intervalLimit, maxThreads: maxThreads}
}

// Reset re-opens the writer for a new interval, reusing the entry buffer
// so continuous recording stops re-growing one per interval. It
// invalidates any Log previously returned by Close (which aliases the
// buffer); AppendEncoded and CloseEncoded copy the entries out, so
// recorders that finalize with them are unaffected.
func (w *Writer) Reset(hdr Header, intervalLimit uint64, maxThreads uint32) {
	if intervalLimit == 0 || maxThreads == 0 {
		panic("mrl: interval limit and max threads must be positive")
	}
	w.hdr = hdr
	w.intervalLimit = intervalLimit
	w.maxThreads = maxThreads
	w.entries = w.entries[:0]
}

// Add appends an ordering constraint.
func (w *Writer) Add(e Entry) { w.entries = append(w.entries, e) }

// Len returns the number of entries so far.
func (w *Writer) Len() int { return len(w.entries) }

// meta assembles the finalized metadata.
func (w *Writer) meta() Meta {
	return Meta{
		Header:        w.hdr,
		IntervalLimit: w.intervalLimit,
		MaxThreads:    w.maxThreads,
		NumEntries:    uint64(len(w.entries)),
	}
}

// Close finalizes the log as a decoded object.
func (w *Writer) Close() *Log {
	return &Log{Meta: w.meta(), Entries: w.entries}
}

// AppendEncoded finalizes the log straight to its wire encoding, appended
// to dst, plus the metadata the retention layer needs; it returns the
// extended buffer. It mirrors fll.Writer.AppendEncoded.
func (w *Writer) AppendEncoded(dst []byte) (Meta, []byte) {
	m := w.meta()
	return m, appendMarshal(dst, &m, w.entries)
}

// CloseEncoded is AppendEncoded into a fresh buffer the caller may keep
// across Reset.
func (w *Writer) CloseEncoded() (Meta, []byte) { return w.AppendEncoded(nil) }

// Reducer decides which coherence-reply edges need logging. It maintains a
// vector clock per thread over *global* per-thread instruction counts
// (the recorder translates to interval-relative counts when logging).
//
// An edge "remote thread R had committed ric instructions when local
// thread L synchronized with it" is redundant if L's clock already knows
// R has reached ric — i.e. some chain of previously logged edges implies
// the ordering (Netzer's transitive reduction).
type Reducer struct {
	vc [][]uint64 // vc[t][u]: latest IC of u known to happen-before t's present
}

// NewReducer creates a reducer for up to n threads.
func NewReducer(n int) *Reducer {
	r := &Reducer{vc: make([][]uint64, n)}
	for i := range r.vc {
		r.vc[i] = make([]uint64, n)
	}
	return r
}

// Observe records that local thread l at (global) instruction count lic
// received a coherence reply from remote thread r at (global) count ric.
// It returns true if the edge must be logged, false if it is transitively
// implied by earlier edges.
func (d *Reducer) Observe(l int, lic uint64, r int, ric uint64) bool {
	d.vc[l][l] = lic
	if d.vc[r][r] < ric {
		d.vc[r][r] = ric
	}
	if d.vc[l][r] >= ric {
		return false // already ordered
	}
	// Log the edge and absorb the remote's knowledge: everything that
	// happened before the remote's current point now happens before us.
	for u := range d.vc[l] {
		if d.vc[r][u] > d.vc[l][u] {
			d.vc[l][u] = d.vc[r][u]
		}
	}
	if d.vc[l][r] < ric {
		d.vc[l][r] = ric
	}
	return true
}

// Clock returns a copy of thread t's current vector clock (for tests).
func (d *Reducer) Clock(t int) []uint64 {
	return append([]uint64(nil), d.vc[t]...)
}

// --- serialization ---

var magic = [4]byte{'B', 'M', 'R', 'L'}

const version = 1

// ErrBadFormat reports a malformed serialized log.
var ErrBadFormat = errors.New("mrl: bad serialized log")

// appendMarshal appends the wire encoding of (m, entries) to out. It is
// the single serializer behind Log.Marshal and Writer.AppendEncoded.
func appendMarshal(out []byte, m *Meta, entries []Entry) []byte {
	le := binary.LittleEndian
	out = slices.Grow(out, 64+len(entries)*24)
	start := len(out)
	out = append(out, magic[:]...)
	out = append(out, version)
	var tmp [8]byte
	put32 := func(v uint32) {
		le.PutUint32(tmp[:4], v)
		out = append(out, tmp[:4]...)
	}
	put64 := func(v uint64) {
		le.PutUint64(tmp[:8], v)
		out = append(out, tmp[:8]...)
	}
	put32(m.PID)
	put32(m.TID)
	put32(m.CID)
	put64(m.Timestamp)
	put64(m.IntervalLimit)
	put32(m.MaxThreads)
	put64(uint64(len(entries)))
	for _, e := range entries {
		put64(e.LocalIC)
		put32(e.RemoteTID)
		put32(e.RemoteCID)
		put64(e.RemoteIC)
	}
	le.PutUint32(tmp[:4], crc32.ChecksumIEEE(out[start:]))
	out = append(out, tmp[:4]...)
	return out
}

// Marshal encodes the log for storage.
func (l *Log) Marshal() []byte {
	return appendMarshal(nil, &l.Meta, l.Entries)
}

// parse validates a serialized log and decodes its metadata. If withEntries
// is true the entry list is decoded too, else it is skipped (the lazy-view
// path, which needs only the counters).
func parse(data []byte, withEntries bool) (Meta, []Entry, error) {
	le := binary.LittleEndian
	var m Meta
	if len(data) < 4 {
		return m, nil, ErrBadFormat
	}
	body, sum := data[:len(data)-4], le.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return m, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	data = body
	if len(data) < 5+headerBytes+12+8 || [4]byte(data[:4]) != magic || data[4] != version {
		return m, nil, ErrBadFormat
	}
	pos := 5
	get32 := func() uint32 {
		v := le.Uint32(data[pos:])
		pos += 4
		return v
	}
	get64 := func() uint64 {
		v := le.Uint64(data[pos:])
		pos += 8
		return v
	}
	m.PID = get32()
	m.TID = get32()
	m.CID = get32()
	m.Timestamp = get64()
	m.IntervalLimit = get64()
	m.MaxThreads = get32()
	n := get64()
	if n > uint64(len(data)-pos)/24 {
		return m, nil, fmt.Errorf("%w: entry count %d exceeds payload", ErrBadFormat, n)
	}
	m.NumEntries = n
	if !withEntries {
		return m, nil, nil
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i].LocalIC = get64()
		entries[i].RemoteTID = get32()
		entries[i].RemoteCID = get32()
		entries[i].RemoteIC = get64()
	}
	return m, entries, nil
}

// Unmarshal decodes a serialized log.
func Unmarshal(data []byte) (*Log, error) {
	m, entries, err := parse(data, true)
	if err != nil {
		return nil, err
	}
	return &Log{Meta: m, Entries: entries}, nil
}

// Ref is one Memory Race Log held as its wire encoding behind a loader,
// metadata decoded, entries decoded only on Open. See fll.Ref for the
// retention rationale.
type Ref struct {
	Meta
	load   func() ([]byte, error)
	encLen int64
}

// ParseMeta validates one serialized log and returns its metadata without
// decoding the entry list.
func ParseMeta(data []byte) (Meta, error) {
	m, _, err := parse(data, false)
	return m, err
}

// NewLazyRef builds a view from caller-validated metadata and a loader;
// see fll.NewLazyRef.
func NewLazyRef(m Meta, encodedLen int64, load func() ([]byte, error)) *Ref {
	return &Ref{Meta: m, load: load, encLen: encodedLen}
}

// Open loads the log, checks its checksum, and decodes its entries.
func (r *Ref) Open() (*Log, error) {
	data, err := r.load()
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Encoded returns the log's wire encoding without decoding entries.
func (r *Ref) Encoded() ([]byte, error) { return r.load() }

// EncodedLen returns the wire size without loading; see fll.EncodedLen.
func (r *Ref) EncodedLen() int64 { return r.encLen }
