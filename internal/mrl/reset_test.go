package mrl

import (
	"bytes"
	"testing"

	"bugnet/internal/workload/accesstest"
)

// TestAppendEncodedIntoCallerSpace mirrors the FLL guarantee: cut into the
// intervals of a captured guest stream (an entry per operation, its fields
// drawn from the access), every MRL encodes into a reused buffer to the
// bytes CloseEncoded and Log.Marshal produce, behind whatever the buffer
// already held, and costs no allocation once the buffer has the capacity.
func TestAppendEncodedIntoCallerSpace(t *testing.T) {
	prefix := []byte("the paired FLL")
	w := NewWriter(Header{PID: 3, TID: 1}, 10_000, 2)
	var buf []byte
	intervals := 0
	check := func() {
		intervals++
		_, want := w.CloseEncoded()
		if got := w.Close().Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("interval %d: Log.Marshal differs from CloseEncoded", intervals)
		}
		for _, pre := range [][]byte{nil, prefix} {
			var m Meta
			m, buf = w.AppendEncoded(append(buf[:0], pre...))
			if !bytes.Equal(buf[:len(pre)], pre) || !bytes.Equal(buf[len(pre):], want) {
				t.Fatalf("interval %d: AppendEncoded behind %d bytes differs from CloseEncoded", intervals, len(pre))
			}
			if pm, err := ParseMeta(buf[len(pre):]); err != nil || pm != m {
				t.Fatalf("interval %d: appended log does not parse alone: %v", intervals, err)
			}
		}
		if n := testing.AllocsPerRun(5, func() {
			_, buf = w.AppendEncoded(append(buf[:0], prefix...))
		}); n != 0 {
			t.Fatalf("interval %d: AppendEncoded into sufficient capacity allocates %v times; want 0", intervals, n)
		}
	}
	for k, a := range accesstest.Capture("gzip", 200_000) {
		if a.NewInterval && k > 0 {
			check()
			w.Reset(Header{PID: 3, TID: 1, CID: uint32(intervals), Timestamp: uint64(k)}, 10_000, 2)
		}
		w.Add(Entry{LocalIC: uint64(k), RemoteCID: uint32(intervals), RemoteIC: uint64(a.Val)})
	}
	check()
	if intervals < 10 {
		t.Fatalf("stream made %d intervals; want at least 10", intervals)
	}
}

// TestWriterResetEncodesIdentically mirrors the FLL pooling guarantee:
// recycled MRL writers encode byte-identically to fresh ones.
func TestWriterResetEncodesIdentically(t *testing.T) {
	hdr := func(cid uint32) Header {
		return Header{PID: 3, TID: 0, CID: cid, Timestamp: uint64(cid)}
	}
	feed := func(w *Writer, n int) {
		for i := 0; i < n; i++ {
			w.Add(Entry{LocalIC: uint64(i), RemoteTID: 1, RemoteCID: 2, RemoteIC: uint64(i * 3)})
		}
	}
	var fresh [][]byte
	for cid := uint32(0); cid < 3; cid++ {
		w := NewWriter(hdr(cid), 1000, 4)
		feed(w, int(cid)*5+2)
		_, data := w.CloseEncoded()
		fresh = append(fresh, data)
	}
	w := NewWriter(hdr(0), 1000, 4)
	for cid := uint32(0); cid < 3; cid++ {
		if cid > 0 {
			w.Reset(hdr(cid), 1000, 4)
		}
		feed(w, int(cid)*5+2)
		_, data := w.CloseEncoded()
		if !bytes.Equal(data, fresh[cid]) {
			t.Fatalf("interval %d: pooled encoding differs", cid)
		}
		if w.Len() == 0 {
			t.Fatalf("interval %d: writer lost its entries", cid)
		}
	}
	// Reset validates its geometry like NewWriter.
	defer func() {
		if recover() == nil {
			t.Error("zero interval limit accepted")
		}
	}()
	w.Reset(hdr(9), 0, 4)
}
