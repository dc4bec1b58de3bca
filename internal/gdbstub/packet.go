// Package gdbstub speaks the gdb Remote Serial Protocol (RSP) over TCP
// and maps it onto the time-travel session layer, so stock gdb — and any
// IDE that drives gdb — gets deterministic reverse execution over a
// recorded crash window for free. This is the VM-replay debuggers' trick
// (AADEBUG 2003): implement the wire protocol existing tooling already
// knows instead of teaching every client a bespoke API. The paper's
// support-engineer story (§1, §5) ends with exactly this: point a real
// debugger at the interval before a field crash.
//
// The package splits into three layers:
//
//   - a packet codec: "$payload#xx" framing, two-hex checksums, '}'
//     escaping and '*' run-length encoding (this file), with one framer,
//     readFrame (server.go), that server and client both read through —
//     EncodePacket/readFrame round-trip byte-exactly and are fuzzed;
//   - a per-connection command dispatcher (stub.go) translating RSP
//     packets into timetravel.Command values, including the bs/bc
//     reverse-execution extensions;
//   - a TCP listener (server.go) that opens one timetravel.Manager
//     session per connection, honoring the manager's concurrency cap and
//     idle janitor.
package gdbstub

import (
	"errors"
	"fmt"
)

// maxPacketBytes caps one decoded payload. RSP packets are small command
// strings and bounded memory reads; anything larger is an attack or a bug.
const maxPacketBytes = 16 << 10

// ErrChecksum condemns the current packet (the transport answers '-' or
// drops it) but never the connection.
var ErrChecksum = errors.New("gdbstub: packet checksum mismatch")

const hexDigits = "0123456789abcdef"

// Checksum is the RSP packet checksum: the mod-256 sum of the wire bytes
// between '$' and '#' (after escaping and run-length encoding).
func Checksum(wire []byte) byte {
	var sum byte
	for _, b := range wire {
		sum += b
	}
	return sum
}

// EncodePacket frames payload as one wire packet: '$', the escaped and
// run-length-encoded body, '#', and the two-digit hex checksum.
func EncodePacket(payload []byte) []byte {
	body := encodeBody(payload)
	sum := Checksum(body)
	out := make([]byte, 0, len(body)+4)
	out = append(out, '$')
	out = append(out, body...)
	return append(out, '#', hexDigits[sum>>4], hexDigits[sum&0xf])
}

// mustEscape reports whether b cannot travel literally inside a packet.
func mustEscape(b byte) bool {
	return b == '$' || b == '#' || b == '}' || b == '*'
}

// rleUnsafe reports repeat-count characters a conservative sender avoids:
// the spec forbids '#' and '$', and real stubs also skip '*', '}', '+'
// and '-' so a corrupted stream cannot alias framing or ack bytes.
func rleUnsafe(r byte) bool {
	switch r {
	case '#', '$', '*', '}', '+', '-':
		return true
	}
	return false
}

// encodeBody escapes the payload and run-length-encodes literal runs.
// "c*r" stands for c repeated (r-29) further times; r must stay printable
// (so one clause covers at most 98 bytes) and runs shorter than four bytes
// are cheaper spelled out. Escaped bytes never join a run: the repeat
// applies to the wire character, and keeping runs literal-only makes the
// decode order (expand, then unescape) unambiguous.
func encodeBody(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+4)
	for i := 0; i < len(payload); {
		b := payload[i]
		if mustEscape(b) {
			out = append(out, '}', b^0x20)
			i++
			continue
		}
		run := 1
		for i+run < len(payload) && payload[i+run] == b && run < 98 {
			run++
		}
		if run >= 4 {
			n := run
			for rleUnsafe(byte(n - 1 + 29)) {
				n-- // shrink to the nearest safe repeat char (min 4 is ' ')
			}
			out = append(out, b, '*', byte(n-1+29))
			i += n
			continue
		}
		out = append(out, b)
		i++
	}
	return out
}

// decodeBody reverses encodeBody: expand run-length clauses, then resolve
// escapes. A '*' repeats the previously decoded byte, so a clause whose
// run was spelled as an escape pair still expands to the escaped value.
func decodeBody(wire []byte) ([]byte, error) {
	out := make([]byte, 0, len(wire))
	for i := 0; i < len(wire); i++ {
		switch b := wire[i]; b {
		case '}':
			i++
			if i >= len(wire) {
				return nil, errors.New("gdbstub: dangling escape")
			}
			out = append(out, wire[i]^0x20)
		case '*':
			i++
			if i >= len(wire) {
				return nil, errors.New("gdbstub: dangling run-length")
			}
			r := wire[i]
			if r < 29 || r > 126 {
				return nil, fmt.Errorf("gdbstub: run-length repeat char %#x out of range", r)
			}
			if len(out) == 0 {
				return nil, errors.New("gdbstub: run-length with no preceding character")
			}
			c := out[len(out)-1]
			for j := 0; j < int(r)-29; j++ {
				out = append(out, c)
			}
		default:
			out = append(out, b)
		}
		if len(out) > maxPacketBytes {
			return nil, fmt.Errorf("gdbstub: packet exceeds %d bytes", maxPacketBytes)
		}
	}
	return out, nil
}

// hexVal decodes one hex digit; ok is false for non-hex bytes.
func hexVal(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, true
	}
	return 0, false
}
