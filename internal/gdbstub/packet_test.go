package gdbstub

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// readPacket reads wire through readFrame, the framer server and client
// run, up to and including its first packet, and reports how many wire
// bytes that consumed.
func readPacket(wire []byte) (f frame, consumed int, err error) {
	r := bytes.NewReader(wire)
	br := bufio.NewReader(r)
	for {
		f, err = readFrame(br)
		if err != nil || f.kind == '$' {
			return f, len(wire) - r.Len() - br.Buffered(), err
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("OK"),
		[]byte("qSupported:multiprocess+;swbreak+"),
		[]byte("$#}*"),                  // every escapable byte
		[]byte(strings.Repeat("0", 64)), // long run: RLE kicks in
		[]byte(strings.Repeat("a", 3)),  // below the RLE threshold
		[]byte("T05watch:10008;thread:1;"),
		{0x00, 0x01, 0x7d, 0x24, 0xff, 0x2a}, // binary qXfer-style payload
		bytes.Repeat([]byte{0x00}, 500),      // run longer than one clause
	}
	for _, payload := range cases {
		wire := EncodePacket(payload)
		got, n, err := readPacket(wire)
		if err != nil || got.malformed {
			t.Fatalf("readFrame(%q): %v (malformed %v)", wire, err, got.malformed)
		}
		if n != len(wire) {
			t.Fatalf("consumed %d of %d for %q", n, len(wire), wire)
		}
		if !bytes.Equal(got.payload, payload) {
			t.Fatalf("round trip %q -> %q", payload, got.payload)
		}
	}
}

func TestPacketRLECompresses(t *testing.T) {
	payload := []byte(strings.Repeat("0", 32))
	wire := EncodePacket(payload)
	if len(wire) >= len(payload) {
		t.Fatalf("RLE did not compress: %d wire bytes for %d zeros", len(wire), len(payload))
	}
}

func TestParsePacketSkipsJunk(t *testing.T) {
	wire := append([]byte("+++noise"), EncodePacket([]byte("OK"))...)
	f, n, err := readPacket(wire)
	if err != nil || string(f.payload) != "OK" || n != len(wire) {
		t.Fatalf("payload=%q n=%d err=%v", f.payload, n, err)
	}
}

func TestParsePacketIncomplete(t *testing.T) {
	wire := EncodePacket([]byte("qSupported"))
	for cut := 0; cut < len(wire); cut++ {
		_, n, err := readPacket(wire[:cut])
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) || n != cut {
			t.Fatalf("cut=%d: n=%d err=%v, want the stream's end", cut, n, err)
		}
	}
}

func TestParsePacketBadChecksum(t *testing.T) {
	wire := EncodePacket([]byte("OK"))
	wire[len(wire)-1] ^= 1
	if _, n, err := readPacket(wire); err != ErrChecksum || n != len(wire) {
		t.Fatalf("n=%d err=%v, want full consume + ErrChecksum", n, err)
	}
	// Garbage checksum digits are a checksum failure, not a panic.
	bad := []byte("$OK#zz")
	if _, _, err := readPacket(bad); err != ErrChecksum {
		t.Fatalf("err=%v, want ErrChecksum", err)
	}
}

func TestDecodeBodyRejectsMalformed(t *testing.T) {
	cases := []string{
		"}",      // dangling escape
		"*!",     // run-length with no preceding character
		"a*",     // dangling run-length
		"a*\x1b", // repeat char below the printable floor
	}
	for _, c := range cases {
		if _, err := decodeBody([]byte(c)); err == nil {
			t.Fatalf("decodeBody(%q) accepted malformed input", c)
		}
	}
}

func TestDecodeBodyExpandsRLE(t *testing.T) {
	// "0* " = '0' plus (' '-29)=3 more: the spec's own example.
	got, err := decodeBody([]byte("0* "))
	if err != nil || string(got) != "0000" {
		t.Fatalf("got %q, %v", got, err)
	}
}
