package mrl

import "testing"

// FuzzUnmarshal drives arbitrary bytes down the path replay takes: a
// section ParseMeta accepts becomes a Ref, and Ref.Open checks it again
// and decodes its entries. Nothing may panic, Open must accept what
// ParseMeta did, and valid logs round-trip.
func FuzzUnmarshal(f *testing.F) {
	w := NewWriter(Header{PID: 1, TID: 2, CID: 3, Timestamp: 4}, 1<<20, 8)
	for i := 0; i < 20; i++ {
		w.Add(Entry{LocalIC: uint64(i), RemoteTID: uint32(i % 8), RemoteIC: uint64(i * 2)})
	}
	f.Add(w.Close().Marshal())
	f.Add([]byte("BMRL"))
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
		if l.Meta != m || uint64(len(l.Entries)) != m.NumEntries {
			t.Fatalf("Open decoded %+v with %d entries; ParseMeta %+v", l.Meta, len(l.Entries), m)
		}
		re, err := Unmarshal(l.Marshal())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Header != l.Header || len(re.Entries) != len(l.Entries) {
			t.Fatal("round trip differs")
		}
	})
}
