// Package bits provides bit-granular stream writers and readers.
//
// BugNet's First-Load Log entries are not byte aligned: an entry is
// (LC-Type:1 bit, L-Count:5 or 32 bits, LV-Type:1 bit, value:6 or 32 bits),
// so logs must be packed at bit granularity to reproduce the paper's log
// sizes. Bits are written MSB-first within each byte, which makes hex dumps
// of logs readable left-to-right.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnderflow is returned when a read requests more bits than remain.
var ErrUnderflow = errors.New("bits: read past end of stream")

// Writer accumulates a bit stream into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit uint64 // total bits written
}

// WriteBits appends the low n bits of v to the stream, most significant of
// those n bits first; bits of v above n are ignored. n must be in [0, 64].
// It tops up the partial last byte, then appends the rest as whole bytes.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bits: WriteBits width %d > 64", n))
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	free := uint(-w.nbit & 7) // unwritten low bits of the last byte
	w.nbit += uint64(n)
	if free > 0 {
		last := &w.buf[len(w.buf)-1]
		if n <= free {
			*last |= byte(v << (free - n))
			return
		}
		n -= free
		*last |= byte(v >> n)
	}
	if n > 0 {
		// Left-align what remains and append it as one big-endian word;
		// the bytes past the last one that holds a bit are zero, and are
		// cut off again.
		k := len(w.buf) + int(n+7)/8
		w.buf = binary.BigEndian.AppendUint64(w.buf, v<<(64-n))[:k]
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Align pads the stream with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if r := w.nbit & 7; r != 0 {
		w.WriteBits(0, uint(8-r))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint64 { return w.nbit }

// Bytes returns the packed stream. The final byte is zero-padded in its low
// bits if the stream is not byte aligned. The returned slice aliases the
// writer's buffer; it remains valid but may change if more bits are written.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset discards all written bits, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes a bit stream produced by Writer. It never writes the
// buffer, so a copy of a Reader is an independent cursor at the same
// position; replay checkpointing copies one to freeze a log cursor.
type Reader struct {
	buf  []byte
	pos  uint64 // bits consumed
	nbit uint64 // total readable bits
}

// NewReader returns a Reader over the given bytes, exposing len(buf)*8 bits.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf, nbit: uint64(len(buf)) * 8}
}

// NewReaderBits returns a Reader over buf that exposes exactly n bits.
func NewReaderBits(buf []byte, n uint64) *Reader {
	if max := uint64(len(buf)) * 8; n > max {
		n = max
	}
	return &Reader{buf: buf, nbit: n}
}

// ReadBits consumes n bits and returns them in the low bits of the result,
// in the order they were written. n must be in [0, 64]. A read past the
// end fails without consuming anything. It takes the rest of the current
// byte, then a whole byte per step.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bits: ReadBits width %d > 64", n))
	}
	if r.pos+uint64(n) > r.nbit {
		return 0, ErrUnderflow
	}
	if n == 0 {
		return 0, nil
	}
	i, off := r.pos>>3, uint(r.pos&7)
	r.pos += uint64(n)
	avail := 8 - off // unread bits of the current byte
	v := uint64(r.buf[i] & (0xFF >> off))
	if n <= avail {
		return v >> (avail - n), nil
	}
	for n -= avail; n >= 8; n -= 8 {
		i++
		v = v<<8 | uint64(r.buf[i])
	}
	if n > 0 {
		v = v<<n | uint64(r.buf[i+1]>>(8-n))
	}
	return v, nil
}

// Peek returns the unread bits left-aligned in a word, without consuming
// them, and how many of its leading bits are stream bits: at least 57, or
// all that remain when fewer do. The bits past that count are not part
// of the stream. A decoder that learns a field's width from the field's
// own leading bits takes the whole field from one Peek and then Skips it.
func (r *Reader) Peek() (uint64, uint) {
	i, off := r.pos>>3, uint(r.pos&7)
	var w uint64
	if i+8 <= uint64(len(r.buf)) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k := uint(56); i < uint64(len(r.buf)); i, k = i+1, k-8 {
			w |= uint64(r.buf[i]) << k
		}
	}
	return w << off, uint(min(64-uint64(off), r.nbit-r.pos))
}

// Skip consumes n bits; n must not exceed the count Peek returned.
func (r *Reader) Skip(n uint) {
	if uint64(n) > r.nbit-r.pos {
		panic("bits: Skip past the end of the stream")
	}
	r.pos += uint64(n)
}

// ReadBit consumes a single bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v != 0, err
}

// Align skips to the next byte boundary.
func (r *Reader) Align() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
		if r.pos > r.nbit {
			r.pos = r.nbit
		}
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() uint64 { return r.nbit - r.pos }

// Offset returns the number of bits consumed so far.
func (r *Reader) Offset() uint64 { return r.pos }
