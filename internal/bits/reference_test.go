package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

// refWriter and refReader are the one-bit-per-step packers this package
// started with, kept as the reference the byte-at-a-time ones must match
// bit for bit.
type refWriter struct {
	buf  []byte
	nbit uint64
}

func (w *refWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if w.nbit&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[len(w.buf)-1] |= 0x80 >> (w.nbit & 7)
		}
		w.nbit++
	}
}

func refReadBits(buf []byte, pos uint64, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint64(buf[pos>>3]>>(7-pos&7)&1)
		pos++
	}
	return v
}

// TestEveryWidthAtEveryAlignment writes an align-bit prefix, a field of
// every width with garbage above bit n, and a trailer, then reads the same
// way: bytes and values must match the per-bit reference.
func TestEveryWidthAtEveryAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w Writer // reused through Reset, which must leave no stale bits
	for align := uint(0); align < 8; align++ {
		for n := uint(0); n <= 64; n++ {
			for _, v := range []uint64{0, ^uint64(0), rng.Uint64(), rng.Uint64()} {
				w.Reset()
				var ref refWriter
				for _, f := range []struct {
					v uint64
					n uint
				}{{rng.Uint64(), align}, {v, n}, {rng.Uint64(), uint(rng.Intn(65))}} {
					w.WriteBits(f.v, f.n)
					ref.writeBits(f.v, f.n)
				}
				if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
					t.Fatalf("align %d width %d value %#x: wrote %x (%d bits); reference %x (%d bits)",
						align, n, v, w.Bytes(), w.Len(), ref.buf, ref.nbit)
				}
				r := NewReaderBits(w.Bytes(), w.Len())
				if _, err := r.ReadBits(align); err != nil {
					t.Fatal(err)
				}
				got, err := r.ReadBits(n)
				if want := refReadBits(ref.buf, uint64(align), n); err != nil || got != want {
					t.Fatalf("align %d width %d: read %#x, %v; reference %#x", align, n, got, err, want)
				}
				if r.Offset() != uint64(align+n) {
					t.Fatalf("align %d width %d: offset %d after read", align, n, r.Offset())
				}
			}
		}
	}
}

// TestReadNearTheEnd reads a field of every width at every bit alignment
// with 0 to 9 bytes of buffer past its last byte, so each width meets both
// the one-word load and the byte loop the last 7 bytes of a buffer take.
// Read in one piece, through Peek and Skip, and one bit short of the
// stream's end, it must give the per-bit reference's bits; a read that
// underflows consumes nothing.
func TestReadNearTheEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for align := uint(0); align < 8; align++ {
		for n := uint(0); n <= 64; n++ {
			for tail := 0; tail <= 9; tail++ {
				// Two bytes ahead of the field, then the field's bytes, then
				// tail more: garbage all of it, so a mask that lets a
				// neighbouring bit through shows.
				buf := make([]byte, 2+int(align+n+7)/8+tail)
				rng.Read(buf)
				pos := 16 + uint64(align)
				want := refReadBits(buf, pos, n)

				r := NewReader(buf)
				r.pos = pos
				if got, err := r.ReadBits(n); err != nil || got != want {
					t.Fatalf("align %d width %d tail %d: read %#x, %v; reference %#x", align, n, tail, got, err, want)
				}
				if r.Offset() != pos+uint64(n) {
					t.Fatalf("align %d width %d tail %d: offset %d after read", align, n, tail, r.Offset())
				}

				r.pos = pos
				w, avail := r.Peek()
				if left := r.Remaining(); uint64(avail) != min(left, 64-uint64(align)) {
					t.Fatalf("align %d width %d tail %d: Peek shows %d bits of %d left", align, n, tail, avail, left)
				}
				if got := w >> (64 - avail) << (64 - avail); avail > 0 && got != refReadBits(buf, pos, avail)<<(64-avail) {
					t.Fatalf("align %d width %d tail %d: Peek %#x; reference %#x", align, n, tail, got, refReadBits(buf, pos, avail)<<(64-avail))
				}
				if n <= avail {
					r.Skip(n)
					if r.Offset() != pos+uint64(n) || (n > 0 && w>>(64-n) != want) {
						t.Fatalf("align %d width %d tail %d: Peek+Skip took %#x to offset %d", align, n, tail, w>>(64-n), r.Offset())
					}
				}

				// The stream ends one bit before the field does.
				if n > 0 {
					r = NewReaderBits(buf, pos+uint64(n)-1)
					r.pos = pos
					if _, err := r.ReadBits(n); err != ErrUnderflow || r.Offset() != pos {
						t.Fatalf("align %d width %d tail %d: over-long read: err %v, offset %d -> %d", align, n, tail, err, pos, r.Offset())
					}
					if got, err := r.ReadBits(n - 1); err != nil || got != want>>1 {
						t.Fatalf("align %d width %d tail %d: read to the end %#x, %v; reference %#x", align, n, tail, got, err, want>>1)
					}
				}
			}
		}
	}
}

// TestRandomStreamVsReference interleaves fields and Align calls.
func TestRandomStreamVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 200; round++ {
		var w Writer
		var ref refWriter
		for i := 0; i < 100; i++ {
			if rng.Intn(10) == 0 {
				w.Align()
				ref.writeBits(0, uint(-ref.nbit&7))
				continue
			}
			v, n := rng.Uint64(), uint(rng.Intn(65))
			w.WriteBits(v, n)
			ref.writeBits(v, n)
		}
		if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("round %d: stream differs from the per-bit reference", round)
		}
		r := NewReaderBits(w.Bytes(), w.Len())
		for r.Remaining() > 0 {
			n := uint(rng.Intn(65))
			pos := r.Offset()
			got, err := r.ReadBits(n)
			if uint64(n) > w.Len()-pos {
				// Underflow consumes nothing, wherever the cursor stands.
				if err != ErrUnderflow || r.Offset() != pos {
					t.Fatalf("round %d: over-long read: err %v, offset %d -> %d", round, err, pos, r.Offset())
				}
				n = uint(w.Len() - pos)
				got, err = r.ReadBits(n)
			}
			if want := refReadBits(ref.buf, pos, n); err != nil || got != want {
				t.Fatalf("round %d: %d bits at %d = %#x, %v; reference %#x", round, n, pos, got, err, want)
			}
		}
	}
}

// benchWidths is the FLL writer's traffic: (LC-Type + short L-Count) then
// (LV-Type + value), or (LV-Type + rank).
var benchWidths = [...]uint{6, 33, 6, 7}

func BenchmarkWriteBits(b *testing.B) {
	var w Writer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<23 {
			w.Reset()
		}
		w.WriteBits(uint64(i)*0x9E3779B97F4A7C15, benchWidths[i&3])
	}
}

func BenchmarkReadBits(b *testing.B) {
	var w Writer
	for i := 0; w.Len() < 1<<23; i++ {
		w.WriteBits(uint64(i)*0x9E3779B97F4A7C15, benchWidths[i&3])
	}
	w.Align() // 52 bits a round, so rounds stay in step across the rewind
	r := NewReaderBits(w.Bytes(), w.Len())
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 64 {
			*r = *NewReaderBits(w.Bytes(), w.Len())
		}
		v, _ := r.ReadBits(benchWidths[i&3])
		sink += v
	}
	_ = sink
}
