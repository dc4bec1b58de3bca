// Package mem implements the sparse, paged guest physical memory of the
// simulated machine.
//
// The address space is 32 bits, backed lazily by 4 KB pages held in a
// two-level copy-on-write page table (see pagetable.go): accesses cost two
// array indexes, and Snapshot is O(directory) with page copies deferred to
// the writes that actually dirty them. Accesses to unmapped pages return an
// *AccessError, which the CPU turns into the architectural memory fault
// that makes a buggy guest program crash — the event that triggers BugNet
// log collection (paper §4.8). All accesses require natural alignment;
// misaligned accesses also fault.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the guest page size in bytes.
const PageSize = 1 << PageShift

// PageShift is log2(PageSize).
const PageShift = 12

// AccessKind classifies a faulting access.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "access"
}

// AccessError describes a faulting memory access.
type AccessError struct {
	Addr       uint32
	Kind       AccessKind
	Misaligned bool
}

func (e *AccessError) Error() string {
	if e.Misaligned {
		return fmt.Sprintf("mem: misaligned %s at 0x%08x", e.Kind, e.Addr)
	}
	return fmt.Sprintf("mem: %s of unmapped address 0x%08x", e.Kind, e.Addr)
}

// Page is the backing array of one guest page.
type Page = [PageSize]byte

// Memory is a sparse 32-bit guest address space. The zero value is not
// usable; call New. Memory is not safe for concurrent use.
type Memory struct {
	tab table[Page]

	// MapLimit, when positive, caps the number of mapped pages. TryMap
	// refuses to grow past it; Map (the kernel's loader path) ignores it.
	// Replay of untrusted logs sets a limit so hostile register states
	// cannot drive unbounded page allocation through AutoMap.
	MapLimit int
}

// New returns an empty address space with no pages mapped.
func New() *Memory {
	return &Memory{}
}

// Recycle empties the address space to what New returns — nothing mapped, no
// map limit, page pointers handed out earlier stale — keeping the pages and
// page-table leaves it owns alone to back later mappings, which still read
// zero. Pages shared with a snapshot stay the snapshot's. A parallel replay
// worker recycles one memory between intervals instead of building one each.
func (m *Memory) Recycle() {
	m.tab.recycle()
	m.MapLimit = 0
}

// RestoreFrom makes m an independent logical copy of s, map limit included,
// as s.Snapshot() would return, but in place: the pages and page-table
// leaves m owns alone go to its free list first (as Recycle), and later
// copy-on-write faults copy into them instead of allocating. Gen moves, so
// page pointers handed out earlier are stale; a recycled page can come back
// at the same page number with other bytes, so a cache keyed on page
// pointers must be flushed, not revalidated. A replay machine rewinds to a
// checkpoint with it. s must not be m.
func (m *Memory) RestoreFrom(s *Memory) {
	m.tab.recycle()
	s.tab.shareInto(&m.tab)
	m.MapLimit = s.MapLimit
}

// Map ensures that every page overlapping [addr, addr+size) is mapped,
// zero-filling newly created pages. Mapping an already-mapped page is a
// no-op. size==0 maps nothing.
func (m *Memory) Map(addr uint32, size uint32) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	for p := first; ; p++ {
		if m.tab.load(p) == nil {
			m.tab.ensure(p)
		}
		if p == last {
			break
		}
	}
}

// TryMap is Map, but refuses (returning false, mapping nothing new) when
// completing the range would exceed MapLimit.
func (m *Memory) TryMap(addr uint32, size uint32) bool {
	if size == 0 {
		return true
	}
	if m.MapLimit > 0 {
		need := 0
		first := addr >> PageShift
		last := (addr + size - 1) >> PageShift
		for p := first; ; p++ {
			if m.tab.load(p) == nil {
				need++
			}
			if p == last {
				break
			}
		}
		if m.tab.count+need > m.MapLimit {
			return false
		}
	}
	m.Map(addr, size)
	return true
}

// MappedPages returns the number of currently mapped pages.
func (m *Memory) MappedPages() int { return m.tab.count }

// Unmap removes every page fully contained in [addr, addr+size).
func (m *Memory) Unmap(addr uint32, size uint32) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	for p := first; ; p++ {
		m.tab.remove(p)
		if p == last {
			break
		}
	}
}

// Mapped reports whether addr lies on a mapped page.
func (m *Memory) Mapped(addr uint32) bool {
	return m.tab.load(addr>>PageShift) != nil
}

// Footprint returns the number of mapped bytes (pages × page size). This is
// the quantity FDR's core dump must ship back to the developer (Table 2).
func (m *Memory) Footprint() int64 {
	return int64(m.tab.count) * PageSize
}

// page returns addr's page for reading, or nil.
func (m *Memory) page(addr uint32) *Page {
	return m.tab.load(addr >> PageShift)
}

// writable returns addr's page for writing, or nil, copying a page shared
// with a snapshot first (copy-on-write).
func (m *Memory) writable(addr uint32) *Page {
	return m.tab.mutable(addr >> PageShift)
}

// Page returns the backing array of the given page number, or nil if the
// page is unmapped. The CPU's fetch fast path reads text through it. The
// array must be treated as read-only, and the pointer revalidated against
// Gen: a copy-on-write fault or an Unmap can replace or drop the backing
// array of a previously returned page.
func (m *Memory) Page(num uint32) *Page {
	return m.tab.load(num)
}

// Gen returns the pointer-invalidation generation: it changes whenever a
// page pointer previously returned by Page may have gone stale (the page
// was copied on write or unmapped). Callers caching page pointers compare
// generations instead of re-looking pages up on every access.
func (m *Memory) Gen() uint64 { return m.tab.gen }

// LoadWord reads the naturally aligned 32-bit little-endian word at addr.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, &AccessError{Addr: addr, Kind: AccessRead, Misaligned: true}
	}
	p := m.page(addr)
	if p == nil {
		return 0, &AccessError{Addr: addr, Kind: AccessRead}
	}
	o := addr & (PageSize - 1)
	return binary.LittleEndian.Uint32(p[o : o+4 : o+4]), nil
}

// LoadHalf reads the naturally aligned 16-bit little-endian halfword at addr.
func (m *Memory) LoadHalf(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, &AccessError{Addr: addr, Kind: AccessRead, Misaligned: true}
	}
	p := m.page(addr)
	if p == nil {
		return 0, &AccessError{Addr: addr, Kind: AccessRead}
	}
	o := addr & (PageSize - 1)
	return uint16(p[o]) | uint16(p[o+1])<<8, nil
}

// LoadByte reads the byte at addr.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	p := m.page(addr)
	if p == nil {
		return 0, &AccessError{Addr: addr, Kind: AccessRead}
	}
	return p[addr&(PageSize-1)], nil
}

// StoreWord writes a naturally aligned 32-bit little-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return &AccessError{Addr: addr, Kind: AccessWrite, Misaligned: true}
	}
	p := m.writable(addr)
	if p == nil {
		return &AccessError{Addr: addr, Kind: AccessWrite}
	}
	o := addr & (PageSize - 1)
	binary.LittleEndian.PutUint32(p[o:o+4:o+4], v)
	return nil
}

// SetWord makes the naturally aligned word at addr hold v and reports
// whether it held another value. It walks the page table once, and writes
// only on a change: a page shared with a snapshot stays shared when the
// word already holds v. Replay injects logged first loads with it.
func (m *Memory) SetWord(addr uint32, v uint32) (changed bool, err error) {
	if addr&3 != 0 {
		return false, &AccessError{Addr: addr, Kind: AccessWrite, Misaligned: true}
	}
	p, shared := m.tab.peek(addr >> PageShift)
	if p == nil {
		return false, &AccessError{Addr: addr, Kind: AccessWrite}
	}
	o := addr & (PageSize - 1)
	if binary.LittleEndian.Uint32(p[o:o+4:o+4]) == v {
		return false, nil
	}
	if shared {
		p = m.tab.mutable(addr >> PageShift)
	}
	binary.LittleEndian.PutUint32(p[o:o+4:o+4], v)
	return true, nil
}

// StoreHalf writes a naturally aligned 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return &AccessError{Addr: addr, Kind: AccessWrite, Misaligned: true}
	}
	p := m.writable(addr)
	if p == nil {
		return &AccessError{Addr: addr, Kind: AccessWrite}
	}
	o := addr & (PageSize - 1)
	p[o] = byte(v)
	p[o+1] = byte(v >> 8)
	return nil
}

// StoreByte writes the byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	p := m.writable(addr)
	if p == nil {
		return &AccessError{Addr: addr, Kind: AccessWrite}
	}
	p[addr&(PageSize-1)] = v
	return nil
}

// LoadBytes copies len(dst) bytes starting at addr into dst, one page span
// at a time. It fails with an *AccessError at the first unmapped byte.
func (m *Memory) LoadBytes(addr uint32, dst []byte) error {
	for len(dst) > 0 {
		p := m.page(addr)
		if p == nil {
			return &AccessError{Addr: addr, Kind: AccessRead}
		}
		o := addr & (PageSize - 1)
		n := copy(dst, p[o:])
		dst = dst[n:]
		addr += uint32(n)
	}
	return nil
}

// StoreBytes copies src into memory starting at addr, one page span at a
// time. It fails with an *AccessError at the first unmapped byte; earlier
// bytes remain written.
func (m *Memory) StoreBytes(addr uint32, src []byte) error {
	for len(src) > 0 {
		p := m.writable(addr)
		if p == nil {
			return &AccessError{Addr: addr, Kind: AccessWrite}
		}
		o := addr & (PageSize - 1)
		n := copy(p[o:], src)
		src = src[n:]
		addr += uint32(n)
	}
	return nil
}

// LoadCString reads a NUL-terminated string of at most max bytes at addr.
func (m *Memory) LoadCString(addr uint32, max int) (string, error) {
	var buf []byte
	for i := 0; i < max; i++ {
		b, err := m.LoadByte(addr + uint32(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}

// PageNumbers returns the mapped page numbers in ascending order.
func (m *Memory) PageNumbers() []uint32 {
	out := make([]uint32, 0, m.tab.count)
	m.tab.forEach(func(idx uint32, _ *Page) {
		out = append(out, idx)
	})
	return out
}

// Snapshot returns an independent logical copy of the address space,
// including the map limit. The copy is O(directory): pages become shared
// copy-on-write between the two images, and each side pays for a page
// only when it subsequently writes it. FDR's replayer uses snapshots as
// the core-dump image from which checkpoint state is rebuilt; replay
// checkpointing uses them as the known-memory image of a restore point.
func (m *Memory) Snapshot() *Memory {
	s := New()
	s.MapLimit = m.MapLimit
	m.tab.shareInto(&s.tab)
	return s
}
