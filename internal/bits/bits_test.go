package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSimple(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBit(true)
	w.WriteBits(0, 4)
	w.WriteBits(0xDEADBEEF, 32)

	r := NewReaderBits(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("read 3 bits = %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Errorf("read 8 bits = %x", v)
	}
	if b, _ := r.ReadBit(); !b {
		t.Error("read bit = false")
	}
	if v, _ := r.ReadBits(4); v != 0 {
		t.Errorf("read 4 bits = %x", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Errorf("read 32 bits = %x", v)
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

func TestMSBFirstLayout(t *testing.T) {
	var w Writer
	w.WriteBits(1, 1) // 1000_0000
	w.Align()
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x80 {
		t.Errorf("bytes = %x; want 80", got)
	}
	if w.Len() != 8 {
		t.Errorf("len after align = %d", w.Len())
	}
}

func TestUnderflow(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(9); err != ErrUnderflow {
		t.Errorf("9-bit read from 8-bit stream: err = %v", err)
	}
	// The failed read must not consume anything.
	if v, err := r.ReadBits(8); err != nil || v != 0xAB {
		t.Errorf("after underflow: %x, %v", v, err)
	}
}

func TestNewReaderBitsClamp(t *testing.T) {
	r := NewReaderBits([]byte{0xFF}, 100)
	if r.Remaining() != 8 {
		t.Errorf("remaining = %d; want clamped 8", r.Remaining())
	}
}

func TestZeroWidthOps(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 0)
	if w.Len() != 0 {
		t.Error("zero-width write changed length")
	}
	r := NewReader(nil)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Errorf("zero-width read = %v, %v", v, err)
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xAA, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Error("reset did not clear writer")
	}
	w.WriteBits(0x5, 3)
	if w.Len() != 3 {
		t.Error("write after reset broken")
	}
}

func TestReaderAlign(t *testing.T) {
	var w Writer
	w.WriteBits(0x3, 2)
	w.Align()
	w.WriteBits(0xCD, 8)
	r := NewReaderBits(w.Bytes(), w.Len())
	if _, err := r.ReadBits(2); err != nil {
		t.Fatal(err)
	}
	r.Align()
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Errorf("after align read = %x", v)
	}
	r.Align() // align at end must not overflow
	if r.Remaining() != 0 {
		t.Errorf("remaining after final align = %d", r.Remaining())
	}
}

// TestPropertyRoundTrip writes a random sequence of variable-width fields
// and checks they read back identically.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		widths := make([]uint, n)
		values := make([]uint64, n)
		var w Writer
		for i := range widths {
			widths[i] = uint(1 + rng.Intn(64))
			values[i] = rng.Uint64()
			if widths[i] < 64 {
				values[i] &= 1<<widths[i] - 1
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReaderBits(w.Bytes(), w.Len())
		for i := range widths {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != values[i] {
				t.Logf("field %d width %d: got %x err %v want %x", i, widths[i], v, err, values[i])
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLenMatchesBytes checks the byte buffer is always ceil(bits/8).
func TestPropertyLenMatchesBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		for i := 0; i < 50; i++ {
			w.WriteBits(rng.Uint64(), uint(rng.Intn(65)))
		}
		want := int((w.Len() + 7) / 8)
		return len(w.Bytes()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
