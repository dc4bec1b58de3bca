// Package fll implements BugNet's First-Load Log (paper §4.2, §4.3).
//
// One FLL covers one checkpoint interval of one thread. Its header snapshots
// the architectural state at the interval start; its body is a bit-packed
// stream of first-load records, one per logged value:
//
//	(LC-Type:1, L-Count:5 or full, LV-Type:1, value:dictBits or 32)
//
// L-Count is the number of loggable operations skipped (not logged) since
// the previous logged one: 5 bits when the count is below 32 (LC-Type=0),
// otherwise the full width of ceil(log2(interval-limit+1)) bits (LC-Type=1).
// The value is a dictionary rank of log2(dictSize) bits when the value hit
// in the compressor (LV-Type=0), else the raw 32-bit word (LV-Type=1).
//
// Neither addresses nor PCs are logged — replay regenerates them (paper
// §4.3). The Writer and Reader both own the dictionary-update discipline
// ("update on every executed load") so the recorder and replayer cannot
// drift apart; the Reader stops once no rank is left to decode.
package fll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"bugnet/internal/bits"
	"bugnet/internal/cpu"
	"bugnet/internal/dict"
	"bugnet/internal/isa"
)

// shortLCBits is the width of the short L-Count encoding.
const shortLCBits = 5

// shortLCMax is the largest L-Count representable in the short form.
const shortLCMax = 1<<shortLCBits - 1

// EndKind records why a checkpoint interval terminated.
type EndKind uint8

// Interval termination causes.
const (
	EndIntervalFull EndKind = iota // hit the configured interval length
	EndSyscall                     // synchronous trap (paper §4.4)
	EndTimer                       // asynchronous interrupt / context switch
	EndFault                       // the program crashed (paper §4.8)
	EndExit                        // the thread exited cleanly
)

func (e EndKind) String() string {
	switch e {
	case EndIntervalFull:
		return "interval-full"
	case EndSyscall:
		return "syscall"
	case EndTimer:
		return "timer-interrupt"
	case EndFault:
		return "fault"
	case EndExit:
		return "thread-exit"
	}
	return "unknown"
}

// Header is the information BugNet records when creating a checkpoint
// (paper §4.2): process and thread ids to attribute the log, C-ID to pair
// it with its MRL, a timestamp for ordering, and the full architectural
// state needed to start replay.
type Header struct {
	PID           uint32
	TID           uint32
	CID           uint32
	Timestamp     uint64
	IntervalLimit uint64 // configured max interval length, fixes full L-Count width
	DictSize      uint32 // dictionary geometry, fixes rank width
	State         cpu.Snapshot
}

// FaultRecord is appended by the OS when the program crashes: the
// instruction count within the interval and the PC of the faulting
// instruction (paper §4.8).
type FaultRecord struct {
	IC    uint64 // committed instructions into this interval at the fault
	PC    uint32 // faulting instruction address
	Cause uint8  // cpu.FaultCause
}

// Meta is everything a First-Load Log records except the entry stream
// itself: the header plus the trailer counters. It is cheap to hold for
// every retained interval, which is what lets a Ref describe a log (size,
// coverage, fault record, start state) without materializing the entries.
type Meta struct {
	Header
	// EntryBits is the exact bit length of the entry stream.
	EntryBits uint64
	// NumEntries is the number of logged first-load values.
	NumEntries uint64
	// Ops is the total number of loggable operations in the interval.
	Ops uint64
	// Length is the number of committed instructions in the interval.
	Length uint64
	// End tells why the interval terminated.
	End EndKind
	// Fault is non-nil when End == EndFault.
	Fault *FaultRecord

	// UncompressedBits is what the entry stream would have cost with no
	// dictionary (full 32-bit values, no LV-Type bit). The ratio
	// UncompressedBits/EntryBits reproduces the paper's Figure 6.
	UncompressedBits uint64
}

// Log is a finalized First-Load Log: its metadata plus the bit-packed
// first-load record stream.
type Log struct {
	Meta
	// Entries is the bit-packed first-load record stream.
	Entries []byte
}

// HeaderBytes is the serialized header cost: PID, TID, C-ID, DictSize
// (4×4), Timestamp + IntervalLimit (2×8), PC (4), registers (32×4) — what
// the hardware writes at interval start.
const HeaderBytes = 4*4 + 2*8 + 4 + isa.NumRegs*4

// SizeBytes returns the log's storage footprint: header plus packed
// entries plus the small trailer (length, counts, end cause). This is the
// quantity behind the paper's FLL-size figures.
func (m *Meta) SizeBytes() int64 {
	trailer := int64(8 + 8 + 1) // length, entry count, end kind
	if m.Fault != nil {
		trailer += 8 + 4 + 1
	}
	return HeaderBytes + int64((m.EntryBits+7)/8) + trailer
}

// maxIntervalLimit keeps the full L-Count at 63 bits or fewer, so a type
// bit and the count beside it always fit one 64-bit write or read.
const maxIntervalLimit = 1<<63 - 1

// checkGeometry panics unless hdr and d can open an interval.
func checkGeometry(hdr *Header, d *dict.Table) {
	if hdr.IntervalLimit == 0 || hdr.IntervalLimit > maxIntervalLimit {
		panic("fll: IntervalLimit must be in [1, 2^63)")
	}
	if d == nil || d.Size() != int(hdr.DictSize) {
		panic("fll: dictionary geometry does not match header")
	}
}

// bitsFor returns the width needed to represent values in [0, n], for n up
// to maxIntervalLimit.
func bitsFor(n uint64) uint {
	w := uint(1)
	for 1<<w <= n {
		w++
	}
	return w
}

// Writer builds one FLL during recording. The recorder reports every
// loggable operation through Op; the writer encodes entries for the ops
// the first-load filter selected and keeps the dictionary in sync.
type Writer struct {
	hdr        Header
	dict       *dict.Table
	w          bits.Writer
	fullLCBits uint
	skip       uint64 // loggable ops since last logged entry
	ops        uint64
	entries    uint64
	uncBits    uint64
}

// NewWriter starts an FLL for the interval described by hdr. The dictionary
// must be empty (interval start) and is owned by the writer until Close.
func NewWriter(hdr Header, d *dict.Table) *Writer {
	checkGeometry(&hdr, d)
	return &Writer{hdr: hdr, dict: d, fullLCBits: bitsFor(hdr.IntervalLimit)}
}

// Reset re-opens the writer for a new interval described by hdr, reusing
// the entry-stream buffer so continuous recording stops re-growing one
// per interval. Like NewWriter, the dictionary must be empty and match
// the header's geometry. Reset may follow any finalizer: Close's log owns
// a copy of the entry bytes and AppendEncoded copies them into the
// caller's buffer (CloseEncoded's is a fresh one), so no result aliases
// the stream Reset rewinds.
func (w *Writer) Reset(hdr Header, d *dict.Table) {
	checkGeometry(&hdr, d)
	w.hdr = hdr
	w.dict = d
	w.w.Reset()
	w.fullLCBits = bitsFor(hdr.IntervalLimit)
	w.skip = 0
	w.ops = 0
	w.entries = 0
	w.uncBits = 0
}

// Op records one loggable operation whose containing word held value.
// logged tells whether the first-load filter selected it for logging.
func (w *Writer) Op(value uint32, logged bool) {
	w.ops++
	if !logged {
		w.skip++
		w.dict.Update(value)
		return
	}
	// Each type bit goes out in the same write as the field it selects.
	lc := uint(shortLCBits)
	if w.skip <= shortLCMax {
		w.w.WriteBits(w.skip, 1+lc) // LC-Type 0 is the leading bit
	} else {
		lc = w.fullLCBits
		w.w.WriteBits(1<<lc|w.skip&(1<<lc-1), 1+lc)
	}
	if rank, hit := w.dict.LookupUpdate(value); hit {
		w.w.WriteBits(uint64(rank), 1+w.dict.IndexBits()) // LV-Type 0 leads
	} else {
		w.w.WriteBits(1<<32|uint64(value), 1+32)
	}
	w.uncBits += 1 + uint64(lc) + 32
	w.skip = 0
	w.entries++
}

// Bits returns the number of entry-stream bits written so far. The bus
// model samples it to account log production.
func (w *Writer) Bits() uint64 { return w.w.Len() }

// meta assembles the finalized metadata.
func (w *Writer) meta(length uint64, end EndKind, fault *FaultRecord) Meta {
	return Meta{
		Header:           w.hdr,
		EntryBits:        w.w.Len(),
		NumEntries:       w.entries,
		Ops:              w.ops,
		Length:           length,
		End:              end,
		Fault:            fault,
		UncompressedBits: w.uncBits,
	}
}

// Close finalizes the log as a decoded object. length is the committed
// instruction count of the interval; fault may carry the crash record.
func (w *Writer) Close(length uint64, end EndKind, fault *FaultRecord) *Log {
	buf := make([]byte, len(w.w.Bytes()))
	copy(buf, w.w.Bytes())
	return &Log{Meta: w.meta(length, end, fault), Entries: buf}
}

// AppendEncoded finalizes the log straight to its wire encoding (the bytes
// Marshal would produce), appended to dst, plus the metadata the retention
// layer needs; it returns the extended buffer. The recorder uses it so a
// finalized interval is never held decoded and, with a dst of sufficient
// capacity, costs no allocation: the bytes go into a log store, and replay
// re-materializes them on demand through a Ref.
func (w *Writer) AppendEncoded(dst []byte, length uint64, end EndKind, fault *FaultRecord) (Meta, []byte) {
	m := w.meta(length, end, fault)
	return m, appendMarshal(dst, &m, w.w.Bytes())
}

// CloseEncoded is AppendEncoded into a fresh buffer the caller may keep
// across Reset.
func (w *Writer) CloseEncoded(length uint64, end EndKind, fault *FaultRecord) (Meta, []byte) {
	return w.AppendEncoded(nil, length, end, fault)
}

// Reader replays one FLL's entry stream. Every loggable operation replay
// executes takes its place in the stream, in order: through Op, which is
// handed the word memory holds and returns the word the operation must
// observe, or through Take and Feed, which need memory's word only while
// the dictionary is fed. The table only decodes ranks, so the reader feeds
// it only until the interval's last rank (see rankCount); a rank beyond
// the count is an error. From there on an entry's L-Count is all that
// stands between two injections, and Pass hands it to the caller: a replay
// core counts those operations down itself, and only a due one reaches
// the replay hook. The replayer hands counts over only on a machine that
// tracks no known set, has no OnAccess hook and does not log code loads;
// any other calls the hook for every loggable operation.
type Reader struct {
	log        *Log
	dict       *dict.Table
	r          bits.Reader
	fullLCBits uint
	ranks      uint64 // rank entries not yet injected

	pendingValid  bool
	pendingSkip   uint64
	pendingRaw    uint32 // full value, or dictionary rank if pendingIsRank
	pendingIsRank bool   // rank is resolved at injection time: the skipped
	// ops between decode and injection update the dictionary, and the
	// writer encoded the rank against the injection-time table state
	consumed uint64
	err      error
}

// NewReader opens log for replay. The dictionary must be empty and match
// the geometry recorded in the header.
func NewReader(log *Log, d *dict.Table) *Reader {
	if d == nil || d.Size() != int(log.DictSize) {
		panic("fll: dictionary geometry does not match log header")
	}
	r := &Reader{
		log:        log,
		dict:       d,
		r:          *bits.NewReaderBits(log.Entries, log.EntryBits),
		fullLCBits: bitsFor(log.IntervalLimit),
		ranks:      rankCount(&log.Meta, d.IndexBits()),
	}
	r.loadEntry()
	return r
}

// rankCount derives the interval's rank entries from its trailer: a full
// entry costs one bit more than its uncompressed form and a rank
// 31-indexBits less, so UncompressedBits + NumEntries - EntryBits is
// 32-indexBits per rank. No whole count in [0, NumEntries]: no limit.
func rankCount(m *Meta, indexBits uint) uint64 {
	total := m.UncompressedBits + m.NumEntries
	saved, per := total-m.EntryBits, uint64(32-indexBits)
	if total < m.UncompressedBits || total < m.EntryBits || saved%per != 0 || saved/per > m.NumEntries {
		return math.MaxUint64
	}
	return saved / per
}

// loadEntry decodes the next entry into pending state. An entry that
// fits the bits one Peek shows — every entry of a paper-sized interval and
// dictionary, at most 51 bits — is taken from that one word; a wider one,
// or one the stream ends inside, is read field by field.
func (r *Reader) loadEntry() {
	r.pendingValid = false
	if r.err != nil || r.consumed >= r.log.NumEntries {
		return
	}
	w, avail := r.r.Peek()
	lc := uint(shortLCBits)
	if w>>63 != 0 {
		lc = r.fullLCBits
	}
	r.pendingIsRank = w<<(1+lc)>>63 == 0
	vw := uint(32)
	if r.pendingIsRank {
		vw = r.dict.IndexBits()
	}
	if n := 2 + lc + vw; n <= avail {
		r.r.Skip(n)
		r.pendingSkip = w << 1 >> (64 - lc)
		r.pendingRaw = uint32(w << (2 + lc) >> (64 - vw))
	} else if !r.readEntry(lc) {
		return
	}
	if r.pendingIsRank && r.ranks == 0 {
		r.err = errRankBeyond
		return
	}
	r.pendingValid = true
	r.consumed++
}

// readEntry reads the next entry, whose L-Count is lc bits wide, with one
// read for the LC-Type bit, one for the L-Count and the LV-Type bit behind
// it, and one for the value; a read the stream cannot satisfy parks an
// error naming the field it cut short.
func (r *Reader) readEntry(lc uint) bool {
	if _, err := r.r.ReadBits(1); err != nil {
		r.err = fmt.Errorf("fll: truncated entry %d: %w", r.consumed, err)
		return false
	}
	skip, err := r.r.ReadBits(lc + 1)
	if err != nil {
		r.err = fmt.Errorf("fll: truncated L-Count in entry %d: %w", r.consumed, err)
		return false
	}
	r.pendingIsRank = skip&1 == 0
	vw := uint(32)
	if r.pendingIsRank {
		vw = r.dict.IndexBits()
	}
	v, err := r.r.ReadBits(vw)
	if err != nil {
		r.err = fmt.Errorf("fll: truncated value in entry %d: %w", r.consumed, err)
		return false
	}
	r.pendingSkip = skip >> 1
	r.pendingRaw = uint32(v)
	return true
}

// Op processes one loggable operation during replay. memValue is the word
// value the replayer's simulated memory currently holds; the return value
// is the word the operation must observe (and that the replayer must
// install in memory when injected is true). It is Take, then Feed of
// memValue when nothing was injected.
func (r *Reader) Op(memValue uint32) (value uint32, injected bool, err error) {
	v, due, err := r.Take()
	if due || err != nil {
		return v, due, err
	}
	r.Feed(memValue)
	return memValue, false, nil
}

// Take consumes one loggable operation's place in the stream. A due
// operation, the one the pending entry logged, observes the entry's value:
// Take returns it and true, and the caller installs it in memory. Any
// other observes memory, and while Feeding the caller hands the word it
// observes to Feed before the next operation.
func (r *Reader) Take() (value uint32, due bool, err error) {
	if r.err != nil {
		return 0, false, r.err
	}
	if r.pendingValid && r.pendingSkip == 0 {
		v := r.pendingRaw
		if r.pendingIsRank {
			dv, derr := r.dict.ValueAt(int(r.pendingRaw))
			if derr != nil {
				r.err = fmt.Errorf("fll: entry %d: %w", r.consumed-1, derr)
				return 0, false, r.err
			}
			v = dv
			r.ranks--
		}
		r.Feed(v)
		r.loadEntry()
		return v, true, nil
	}
	if r.pendingValid {
		r.pendingSkip--
	}
	return 0, false, nil
}

// Feeding reports whether the dictionary still takes the word every
// operation observes: until the interval's last rank is injected.
func (r *Reader) Feeding() bool { return r.ranks > 0 }

// Feed updates the dictionary with the word an operation observed, while
// Feeding; after that it does nothing.
func (r *Reader) Feed(v uint32) {
	if r.ranks > 0 {
		r.dict.Update(v)
	}
}

// Pass hands over the operations before the next logged one once no rank
// is left to decode: they need neither memory nor the dictionary, and the
// caller lets that many pass without Take, which counts them as taken. It
// returns 0 while Feeding or after an error, so every operation reaches
// Take, and math.MaxUint64 once every entry is consumed.
func (r *Reader) Pass() uint64 {
	if r.ranks != 0 || r.err != nil {
		return 0
	}
	if !r.pendingValid {
		return math.MaxUint64
	}
	n := r.pendingSkip
	r.pendingSkip = 0
	return n
}

// Clone returns an independent reader that continues from r's exact
// position — bit cursor, prefetched entry and consumed count. d must hold
// dictionary state identical to r's table (typically its Clone); the clone
// updates d as it consumes entries, leaving r's table untouched. Replay
// checkpointing uses Clone to freeze and later restore a log cursor
// mid-interval.
func (r *Reader) Clone(d *dict.Table) *Reader {
	if d == nil || d.Size() != r.dict.Size() {
		panic("fll: clone dictionary geometry does not match reader")
	}
	cp := *r
	cp.dict = d
	return &cp
}

// Dict returns the dictionary table the reader decodes ranks against.
func (r *Reader) Dict() *dict.Table { return r.dict }

// Log returns the log the reader was opened over. Snapshot restore uses it
// to re-derive the current-interval pointer without loading the interval
// again.
func (r *Reader) Log() *Log { return r.log }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Exhausted reports whether every logged entry has been consumed.
func (r *Reader) Exhausted() bool { return !r.pendingValid && r.err == nil }

// PendingOne reports whether exactly one logged entry remains uninjected
// with no skipped operations outstanding — the residue a fault-terminated
// interval leaves under code-load logging, where the faulting
// instruction's fetch was logged but the instruction never commits.
func (r *Reader) PendingOne() bool {
	return r.err == nil && r.pendingValid && r.pendingSkip == 0 &&
		r.consumed >= r.log.NumEntries
}

// --- serialization ---

var magic = [4]byte{'B', 'F', 'L', 'L'}

const version = 1

// errRankBeyond reports a rank entry once the trailer's count is spent.
var errRankBeyond = errors.New("fll: a rank beyond the trailer's rank count")

// ErrBadFormat reports a malformed serialized log.
var ErrBadFormat = errors.New("fll: bad serialized log")

// appendMarshal appends the wire encoding of (m, entries) to out. It is
// the single serializer behind Log.Marshal and Writer.AppendEncoded, so
// the two paths cannot drift.
func appendMarshal(out []byte, m *Meta, entries []byte) []byte {
	le := binary.LittleEndian
	out = slices.Grow(out, 5+HeaderBytes+5*8+16+len(entries)+12)
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
	put32(m.DictSize)
	put32(m.State.PC)
	for _, r := range m.State.Regs {
		put32(r)
	}
	put64(m.EntryBits)
	put64(m.NumEntries)
	put64(m.Ops)
	put64(m.Length)
	put64(m.UncompressedBits)
	out = append(out, byte(m.End))
	if m.Fault != nil {
		out = append(out, 1)
		put64(m.Fault.IC)
		put32(m.Fault.PC)
		out = append(out, m.Fault.Cause)
	} else {
		out = append(out, 0)
	}
	put64(uint64(len(entries)))
	out = append(out, entries...)
	// Integrity checksum over everything above: logs travel from the
	// user's machine to the developer, and a corrupted log must fail
	// loudly at decode rather than replay a different execution.
	le.PutUint32(tmp[:4], crc32.ChecksumIEEE(out[start:]))
	out = append(out, tmp[:4]...)
	return out
}

// Marshal encodes the log for storage or transmission to the developer.
func (l *Log) Marshal() []byte {
	return appendMarshal(nil, &l.Meta, l.Entries)
}

// parse validates a serialized log (checksum and framing) and splits it
// into metadata and the entry-stream bytes, which alias data. It is the
// single decoder behind Unmarshal and ParseMeta.
func parse(data []byte) (Meta, []byte, error) {
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
	pos := 0
	need := func(n int) bool { return len(data)-pos >= n }
	if !need(5) || [4]byte(data[:4]) != magic || data[4] != version {
		return m, nil, ErrBadFormat
	}
	pos = 5
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
	if !need(4*4 + 2*8 + 4 + isa.NumRegs*4 + 5*8 + 2) {
		return m, nil, ErrBadFormat
	}
	m.PID = get32()
	m.TID = get32()
	m.CID = get32()
	m.Timestamp = get64()
	m.IntervalLimit = get64()
	m.DictSize = get32()
	m.State.PC = get32()
	for i := range m.State.Regs {
		m.State.Regs[i] = get32()
	}
	m.EntryBits = get64()
	m.NumEntries = get64()
	m.Ops = get64()
	m.Length = get64()
	m.UncompressedBits = get64()
	m.End = EndKind(data[pos])
	pos++
	hasFault := data[pos] == 1
	pos++
	if hasFault {
		if !need(13) {
			return m, nil, ErrBadFormat
		}
		f := &FaultRecord{}
		f.IC = get64()
		f.PC = get32()
		f.Cause = data[pos]
		pos++
		m.Fault = f
	}
	if !need(8) {
		return m, nil, ErrBadFormat
	}
	n := get64()
	if uint64(len(data)-pos) < n {
		return m, nil, ErrBadFormat
	}
	entries := data[pos : pos+int(n) : pos+int(n)]
	if m.EntryBits > n*8 || m.IntervalLimit > maxIntervalLimit || !dict.ValidSize(int(m.DictSize)) {
		return m, nil, ErrBadFormat
	}
	return m, entries, nil
}

// Unmarshal decodes a serialized log. The entry stream is not copied: the
// log's Entries alias data, which must not change while the log is in use.
// Their capacity ends with the stream, so an append to them copies.
func Unmarshal(data []byte) (*Log, error) {
	m, entries, err := parse(data)
	if err != nil {
		return nil, err
	}
	return &Log{Meta: m, Entries: entries}, nil
}

// ParseMeta validates one serialized log and returns its metadata without
// retaining or copying the entry stream.
func ParseMeta(data []byte) (Meta, error) {
	m, _, err := parse(data)
	return m, err
}

// Ref is one First-Load Log held as its wire encoding behind a loader (a
// log-store item, an archive section, a buffer), with the metadata —
// header, counters, fault record — held decoded. A window of Refs costs
// O(intervals) memory instead of O(log bytes), which is what lets replay
// walk a window far larger than RAM when the encoded bytes live in a
// disk-backed log store.
type Ref struct {
	Meta
	load   func() ([]byte, error)
	encLen int64
}

// NewLazyRef builds a view from metadata the caller already validated
// (via ParseMeta over the same encodedLen bytes load returns) and a
// loader, which every Open calls again, so the view itself pins no log
// bytes in memory.
func NewLazyRef(m Meta, encodedLen int64, load func() ([]byte, error)) *Ref {
	return &Ref{Meta: m, load: load, encLen: encodedLen}
}

// Open loads the log and checks its framing and checksum. The result's
// entry stream is a sub-slice of the loaded bytes, read where it lies;
// the caller owns the result and should drop it when the interval is
// consumed.
func (r *Ref) Open() (*Log, error) {
	data, err := r.load()
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Encoded returns the log's wire encoding (the bytes Marshal produces)
// without decoding the entry stream: streaming report packers copy it
// section-to-section.
func (r *Ref) Encoded() ([]byte, error) { return r.load() }

// EncodedLen returns the wire size of the log without loading it: size
// listings over huge lazy windows must not cost I/O.
func (r *Ref) EncodedLen() int64 { return r.encLen }
