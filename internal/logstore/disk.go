package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"bugnet/internal/faultinject"
)

// Disk is the spill-to-disk Backend: the log region lives in append-only
// segment files, so the replay window is bounded by the byte budget the
// operator grants on disk rather than by process memory — the paper's
// "log region the OS is willing to dedicate" (§4.7) at disk scale.
//
// Layout: numbered segment files, each a fixed header followed by framed
// records. A record is
//
//	u32 recLen | u64 seq | u32 tid | u32 cid | u64 timestamp |
//	i64 bytes | u64 instructions | data | u32 CRC32(recLen‖…‖data)
//
// where recLen counts everything between itself and the CRC. Appends go
// to the active (newest) segment, which rotates once it exceeds
// SegmentBytes. Eviction is logical per item; a segment file is deleted
// once every record in it is evicted — budget-driven oldest-segment
// reclamation, since the Store evicts strictly oldest-first.
//
// Reopen re-indexes every segment, validating frame CRCs as it reads. A
// torn tail (a crash mid-append) can exist only as the final frame of the
// highest-numbered segment and is truncated away; a bad frame anywhere
// else — earlier segments, or followed by intact data — is corruption
// and fails the open. Reclamation can lag a crash
// (items evicted from a still-live segment reappear); Open's budget
// re-trim evicts them again.
type Disk struct {
	dir     string
	segMax  int64
	fsys    *faultinject.FS  // nil outside chaos runs: direct os calls
	active  faultinject.File // nil until the first post-open Append rotates
	actSize int64
	frame   []byte // Append's record frame, reused

	recs map[uint64]diskRec
	segs []*diskSeg // oldest first; last is the active segment
}

// diskRec locates one record's data bytes.
type diskRec struct {
	seg  *diskSeg
	off  int64 // offset of data within the segment file
	size int64
}

// diskSeg tracks one segment file's live-record count.
type diskSeg struct {
	path string
	live int
}

// DiskOptions tunes a disk backend.
type DiskOptions struct {
	// SegmentBytes is the rotation threshold for segment files; smaller
	// segments reclaim space sooner under budget pressure, larger ones
	// make fewer files. Default 1 MiB.
	SegmentBytes int64
	// FS routes segment I/O through a fault-injection plane; nil (the
	// production default) calls the os package directly.
	FS *faultinject.FS
}

const (
	segExt        = ".seg"
	segHdrLen     = 8 // magic + version + padding
	recFixedLen   = 8 + 4 + 4 + 8 + 8 + 8
	defaultSegMax = 1 << 20
)

var segMagic = [4]byte{'B', 'N', 'S', 'G'}

const segVersion = 1

// ErrCorruptSegment reports a damaged segment file (outside the
// truncatable torn tail of the newest segment).
var ErrCorruptSegment = errors.New("logstore: corrupt segment")

// OpenDisk opens (creating if needed) a disk-backed log region rooted at
// dir. Pass the result to Open to recover retained items and re-apply the
// budget.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segMax := opts.SegmentBytes
	if segMax <= 0 {
		segMax = defaultSegMax
	}
	return &Disk{dir: dir, segMax: segMax, fsys: opts.FS, recs: make(map[uint64]diskRec)}, nil
}

// segPath names the segment whose first record has sequence seq.
func (d *Disk) segPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%016x%s", seq, segExt))
}

// Recover implements Backend: re-index every segment, oldest first.
func (d *Disk) Recover() ([]Item, error) {
	names, err := filepath.Glob(filepath.Join(d.dir, "*"+segExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // fixed-width hex first-seq names sort in seq order
	var items []Item
	for i, name := range names {
		segItems, err := d.indexSegment(name, i == len(names)-1)
		if err != nil {
			return nil, err
		}
		items = append(items, segItems...)
	}
	return items, nil
}

// indexSegment reads one segment, validating and indexing each record.
// When last is true a trailing bad frame is treated as a torn append and
// truncated away; otherwise it is corruption.
func (d *Disk) indexSegment(path string, last bool) ([]Item, error) {
	f, err := d.fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [segHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || [4]byte(hdr[:4]) != segMagic || hdr[4] != segVersion {
		if last && err != nil {
			// Crash between creating the file and writing its header.
			return nil, d.fsys.Remove(path)
		}
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorruptSegment, path)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	seg := &diskSeg{path: path}
	var items []Item
	pos := int64(segHdrLen)
	var torn bool
	for {
		it, rec, next, err := readRecord(f, pos, fi.Size())
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only a genuinely torn append may be truncated away: the bad
			// frame must be the file's final one (a crash mid-WriteAt can
			// leave only the tail incomplete). A bad frame with intact
			// data after it is disk corruption — destroying the valid
			// records behind it would silently shrink the window, so fail
			// loudly instead.
			if !last || !tornTail(f, pos, fi.Size()) {
				return nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, path, pos, err)
			}
			torn = true
			break
		}
		rec.seg = seg
		d.recs[it.Seq] = rec
		items = append(items, it)
		seg.live++
		pos = next
	}
	if torn {
		if err := d.fsys.Truncate(path, pos); err != nil {
			return nil, err
		}
	}
	if seg.live == 0 {
		// Every record was reclaimed (or the whole tail was torn): the
		// file carries nothing live.
		return nil, d.fsys.Remove(path)
	}
	d.segs = append(d.segs, seg)
	return items, nil
}

// readRecord decodes one framed record at pos, returning the item, its
// data location, and the offset of the next record. size is the segment
// file's length, bounding allocation against a garbage length field.
func readRecord(f faultinject.File, pos, size int64) (Item, diskRec, int64, error) {
	if pos == size {
		return Item{}, diskRec{}, 0, io.EOF // record stream ends cleanly
	}
	le := binary.LittleEndian
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], pos); err != nil {
		return Item{}, diskRec{}, 0, fmt.Errorf("truncated frame length: %w", err)
	}
	recLen := int64(le.Uint32(lenBuf[:]))
	if recLen < recFixedLen || pos+4+recLen+4 > size {
		return Item{}, diskRec{}, 0, fmt.Errorf("implausible record length %d", recLen)
	}
	frame := make([]byte, 4+recLen+4)
	if _, err := f.ReadAt(frame, pos); err != nil {
		return Item{}, diskRec{}, 0, fmt.Errorf("truncated record: %w", err)
	}
	body, sum := frame[:4+recLen], le.Uint32(frame[4+recLen:])
	if crc32.ChecksumIEEE(body) != sum {
		return Item{}, diskRec{}, 0, errors.New("record checksum mismatch")
	}
	p := body[4:]
	it := Item{
		Seq:          le.Uint64(p[0:]),
		TID:          int(int32(le.Uint32(p[8:]))),
		CID:          le.Uint32(p[12:]),
		Timestamp:    le.Uint64(p[16:]),
		Bytes:        int64(le.Uint64(p[24:])),
		Instructions: le.Uint64(p[32:]),
		EncodedBytes: recLen - recFixedLen,
	}
	rec := diskRec{off: pos + 4 + recFixedLen, size: recLen - recFixedLen}
	return it, rec, pos + 4 + recLen + 4, nil
}

// tornTail reports whether the unreadable frame at pos is consistent with
// a crash mid-append: too few bytes left for any record, a frame whose
// claimed extent runs to (or past) the end of the file, or a length field
// too small to be real (a crash can persist the inode size before the
// data pages, leaving the tail zero-filled or a partially-written length
// prefix — and with no usable length, no later record could be located
// anyway, so truncating loses nothing recoverable). The one case that is
// NOT torn: a complete in-bounds frame that failed its checksum with
// further data behind it — that is in-place corruption, and truncating
// would silently destroy the valid records after it.
func tornTail(f faultinject.File, pos, size int64) bool {
	const minFrame = 4 + recFixedLen + 4
	if size-pos < minFrame {
		return true
	}
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], pos); err != nil {
		return true
	}
	recLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if recLen < recFixedLen {
		return true
	}
	return pos+4+recLen+4 >= size
}

// Append implements Backend.
func (d *Disk) Append(it Item, data []byte) error {
	if d.active == nil || d.actSize >= d.segMax {
		if err := d.rotate(it.Seq); err != nil {
			return err
		}
	}
	// One frame buffer serves every record: the segment file keeps the
	// bytes, so nothing here outlives the WriteAt.
	le := binary.LittleEndian
	recLen := recFixedLen + len(data)
	frame := slices.Grow(d.frame[:0], 4+recLen+4)
	frame = le.AppendUint32(frame, uint32(recLen))
	frame = le.AppendUint64(frame, it.Seq)
	frame = le.AppendUint32(frame, uint32(int32(it.TID)))
	frame = le.AppendUint32(frame, it.CID)
	frame = le.AppendUint64(frame, it.Timestamp)
	frame = le.AppendUint64(frame, uint64(it.Bytes))
	frame = le.AppendUint64(frame, it.Instructions)
	frame = append(frame, data...)
	frame = le.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	d.frame = frame
	if _, err := d.active.WriteAt(frame, d.actSize); err != nil {
		return err
	}
	seg := d.segs[len(d.segs)-1]
	d.recs[it.Seq] = diskRec{seg: seg, off: d.actSize + 4 + recFixedLen, size: int64(len(data))}
	seg.live++
	d.actSize += int64(len(frame))
	return nil
}

// rotate closes the active segment and starts a new one named by seq. A
// previous active segment whose records were all evicted while it was
// still accepting appends is reclaimed here, the one deletion Evict must
// defer.
func (d *Disk) rotate(seq uint64) error {
	if d.active != nil {
		if err := d.active.Close(); err != nil {
			return err
		}
		d.active = nil
		if prev := d.activeSeg(); prev != nil && prev.live == 0 {
			d.segs = d.segs[:len(d.segs)-1]
			if err := d.fsys.Remove(prev.path); err != nil {
				return err
			}
		}
	}
	path := d.segPath(seq)
	f, err := d.fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	d.active = f
	d.actSize = segHdrLen
	d.segs = append(d.segs, &diskSeg{path: path})
	return nil
}

// Load implements Backend: the result is freshly read, the caller's own.
func (d *Disk) Load(seq uint64) ([]byte, error) {
	rec, ok := d.recs[seq]
	if !ok {
		return nil, fmt.Errorf("%w: seq %d", ErrEvicted, seq)
	}
	buf := make([]byte, rec.size)
	if rec.seg == d.activeSeg() && d.active != nil {
		if _, err := d.active.ReadAt(buf, rec.off); err != nil {
			return nil, fmt.Errorf("logstore: reading %s: %w", rec.seg.path, err)
		}
		return buf, nil
	}
	f, err := d.fsys.Open(rec.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, rec.off); err != nil {
		return nil, fmt.Errorf("logstore: reading %s: %w", rec.seg.path, err)
	}
	return buf, nil
}

// activeSeg returns the newest segment, nil when none exist.
func (d *Disk) activeSeg() *diskSeg {
	if len(d.segs) == 0 {
		return nil
	}
	return d.segs[len(d.segs)-1]
}

// Evict implements Backend: drop the record from the index and delete its
// segment file once no live record remains in it (never the active
// segment, whose file the next append still writes).
func (d *Disk) Evict(it Item) error {
	rec, ok := d.recs[it.Seq]
	if !ok {
		return fmt.Errorf("logstore: evicting unknown seq %d", it.Seq)
	}
	delete(d.recs, it.Seq)
	rec.seg.live--
	if rec.seg.live > 0 || rec.seg == d.activeSeg() {
		return nil
	}
	for i, s := range d.segs {
		if s == rec.seg {
			d.segs = append(d.segs[:i], d.segs[i+1:]...)
			break
		}
	}
	return d.fsys.Remove(rec.seg.path)
}

// SegmentCount returns the number of live segment files (for tests and
// occupancy reporting).
func (d *Disk) SegmentCount() int { return len(d.segs) }

// Close implements Backend.
func (d *Disk) Close() error {
	if d.active != nil {
		err := d.active.Close()
		d.active = nil
		return err
	}
	return nil
}
