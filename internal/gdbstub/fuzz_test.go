package gdbstub

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

// FuzzRSPPacket is a differential fuzzer over readFrame, the framer the
// server and the client run against arbitrary TCP peers, and the packet
// encoder. Two properties, both ways:
//
//   - arbitrary wire bytes never panic the framer, and every packet it
//     accepts re-encodes and re-reads to the identical payload (the stub's
//     replies must survive the client's framer);
//   - arbitrary payload bytes framed by EncodePacket read back
//     byte-exactly and consume the whole wire image.
func FuzzRSPPacket(f *testing.F) {
	f.Add([]byte("$OK#9a"))
	f.Add([]byte("+$qSupported:swbreak+#01"))
	f.Add([]byte("$0* #xx"))
	f.Add([]byte("$}]#xx"))
	f.Add([]byte("noise$T05watch:10008;thread:1;#00garbage"))
	f.Add(bytes.Repeat([]byte{0x00, '$', '#', '}'}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Treat data as wire bytes: read frames to the stream's end,
		// reading on past a bad checksum as the server does.
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := readFrame(br)
			if errors.Is(err, ErrChecksum) {
				continue
			}
			if err != nil {
				break
			}
			if fr.kind != '$' || fr.malformed {
				continue
			}
			reenc := EncodePacket(fr.payload)
			got, n, err := readPacket(reenc)
			if err != nil || n != len(reenc) || !bytes.Equal(got.payload, fr.payload) {
				t.Fatalf("re-encode diverged: %q -> %q (n=%d err=%v)", fr.payload, got.payload, n, err)
			}
		}

		// Treat data as a payload.
		if len(data) <= maxPacketBytes {
			wire := EncodePacket(data)
			got, n, err := readPacket(wire)
			if err != nil || got.malformed {
				t.Fatalf("EncodePacket produced unreadable wire for %q: %v (malformed %v)", data, err, got.malformed)
			}
			if n != len(wire) {
				t.Fatalf("encode/read consumed %d of %d", n, len(wire))
			}
			if !bytes.Equal(got.payload, data) {
				t.Fatalf("payload round trip %q -> %q", data, got.payload)
			}
		}
	})
}
