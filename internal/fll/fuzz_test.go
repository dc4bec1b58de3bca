package fll

import (
	"testing"

	"bugnet/internal/dict"
)

// FuzzUnmarshal drives arbitrary bytes down the path replay takes: a
// section ParseMeta accepts becomes a Ref, Ref.Open checks it again and
// hands out its entry stream where it lies in the bytes, and a Reader
// replays it. Nothing may panic, Open must accept what ParseMeta did, and
// the log must re-encode to one that parses the same.
func FuzzUnmarshal(f *testing.F) {
	d := dict.New(64)
	w := NewWriter(testHeader(64), d)
	for i := 0; i < 50; i++ {
		w.Op(uint32(i*7), i%3 == 0)
	}
	f.Add(w.Close(50, EndIntervalFull, nil).Marshal())
	f.Add(w.Close(50, EndFault, &FaultRecord{IC: 1, PC: 2, Cause: 3}).Marshal())
	f.Add([]byte("BFLL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMeta(data)
		if err != nil {
			return
		}
		l, err := NewLazyRef(m, int64(len(data)), func() ([]byte, error) { return data, nil }).Open()
		if err != nil {
			t.Fatalf("Open refused a log ParseMeta accepted: %v", err)
		}
		if len(l.Entries) > 0 && !aliases(data, l.Entries) {
			t.Fatal("Open copied the entry stream")
		}
		re, err := ParseMeta(l.Marshal())
		if err != nil {
			t.Fatalf("re-decode of valid log failed: %v", err)
		}
		if re.Header != l.Header || re.EntryBits != l.EntryBits || re.NumEntries != l.NumEntries {
			t.Fatal("re-encoded log differs")
		}
		// Structural dump of a decoded log must not panic either.
		_, _ = l.DumpEntries(16)
		if size := int(l.DictSize); size < 2 || size > 1<<16 || size&(size-1) != 0 {
			return // a table of that size cannot be built to replay against
		}
		r := NewReader(l, dict.New(int(l.DictSize)))
		for i := uint32(0); i < 1<<12 && !r.Exhausted() && r.Err() == nil; i++ {
			r.Op(i % 7)
		}
	})
}

// aliases reports whether sub lies inside buf.
func aliases(buf, sub []byte) bool {
	for i := range buf {
		if &buf[i] == &sub[0] {
			return true
		}
	}
	return false
}
