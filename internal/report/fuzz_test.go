package report

import (
	"testing"

	"bugnet/internal/mrl"
)

// FuzzOpenArchive: the archive is the one on-disk and on-the-wire form of
// a crash report, so it is the boundary untrusted bytes cross. For any
// input, opening it, assembling the report, and decoding every log it
// carries must return (an error or a value) without panicking.
func FuzzOpenArchive(f *testing.F) {
	_, rep := record(f)
	blob, err := Pack(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	rep.MRLs[0] = append(rep.MRLs[0], mrlRef(&mrl.Log{
		Meta: mrl.Meta{
			Header:        mrl.Header{PID: rep.PID, TID: 0, CID: 0, Timestamp: 1},
			IntervalLimit: 16,
			MaxThreads:    2,
			NumEntries:    1,
		},
		Entries: []mrl.Entry{{LocalIC: 3, RemoteTID: 1, RemoteIC: 9}},
	}))
	withMRL, err := Pack(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withMRL)
	f.Add(blob[:9])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := OpenBytes(data)
		if err != nil {
			return
		}
		got := a.Report()
		for _, logs := range got.FLLs {
			for _, ref := range logs {
				if l, err := ref.Open(); err == nil {
					_, _ = l.DumpEntries(64)
				}
			}
		}
		for _, logs := range got.MRLs {
			for _, ref := range logs {
				_, _ = ref.Open()
			}
		}
	})
}
