package gdbstub

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"bugnet/internal/timetravel"
)

// Config parameterizes a Server.
type Config struct {
	// Manager hosts the time-travel sessions the stub drives. Each TCP
	// connection attaches at most one session, so the manager's
	// concurrency cap and idle janitor govern RSP clients exactly as they
	// govern the JSON API.
	Manager *timetravel.Manager
	// DefaultReport, when set, is the report a connection attaches to on
	// its first session-needing packet if the client never sent vAttach —
	// the plain "target remote" flow, where gdb never names a process.
	DefaultReport string
}

// writeTimeout bounds each reply write.
const writeTimeout = 30 * time.Second

// Server accepts RSP connections and runs one protocol conversation per
// connection. It is transport only: every debugging decision lives in the
// session manager and engine, shared with the JSON debug API.
type Server struct {
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// New returns a server over cfg. Callers pass listeners to Serve.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until the listener fails or the server
// closes. Each connection runs in its own goroutine; a failed or hostile
// connection never affects the accept loop.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("gdbstub: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Close stops all listeners and tears down live connections (detaching
// their sessions). Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// frame is one unit of the inbound byte stream.
type frame struct {
	kind      byte // '+' ack, '-' nak, 3 interrupt, '$' packet
	payload   []byte
	malformed bool // packet with a valid checksum but an undecodable body
}

// readFrame reads the next ack, nak, interrupt or packet, skipping line
// noise between frames. A checksum mismatch returns ErrChecksum (the
// caller NAKs and resynchronizes); a body that fails to decode under a
// valid checksum returns a malformed frame (the caller answers E01 — a
// retransmit would just fail again).
func readFrame(br *bufio.Reader) (frame, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return frame{}, err
		}
		switch b {
		case '+', '-':
			return frame{kind: b}, nil
		case 0x03:
			return frame{kind: 3}, nil
		case '$':
			body := make([]byte, 0, 64)
			for {
				c, err := br.ReadByte()
				if err != nil {
					return frame{}, err
				}
				if c == '#' {
					break
				}
				body = append(body, c)
				if len(body) > 2*maxPacketBytes {
					return frame{}, errors.New("gdbstub: unterminated packet flood")
				}
			}
			var sum [2]byte
			if _, err := io.ReadFull(br, sum[:]); err != nil {
				return frame{}, err
			}
			hi, ok1 := hexVal(sum[0])
			lo, ok2 := hexVal(sum[1])
			if !ok1 || !ok2 || hi<<4|lo != Checksum(body) {
				return frame{}, ErrChecksum
			}
			payload, err := decodeBody(body)
			if err != nil {
				return frame{kind: '$', malformed: true}, nil
			}
			return frame{kind: '$', payload: payload}, nil
		default:
			// noise between frames: skip
		}
	}
}

// serveConn runs one RSP conversation. The deadline discipline: every
// frame read re-arms the manager's idle timeout, every write writeTimeout —
// a stalled or vanished client frees its session slot without operator
// help, while the manager's own janitor stays the backstop.
func (s *Server) serveConn(c net.Conn) {
	cn := &conn{srv: s}
	mConnsTotal.Inc()
	mConnsOpen.Inc()
	defer func() {
		mConnsOpen.Dec()
		cn.detach()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	var lastReply []byte
	write := func(b []byte) bool {
		c.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := c.Write(b)
		return err == nil
	}
	idle := s.cfg.Manager.IdleTimeout()
	for {
		c.SetReadDeadline(time.Now().Add(idle))
		f, err := readFrame(br)
		if errors.Is(err, ErrChecksum) {
			// Ask for a retransmit; in no-ack mode the link is assumed
			// reliable, so a bad checksum is just a dropped packet.
			mNaks.Inc()
			if !cn.noAck && !write([]byte{'-'}) {
				return
			}
			continue
		}
		if err != nil {
			return // EOF, deadline, or flood: the conversation is over
		}
		switch f.kind {
		case '+':
			continue
		case '-':
			if lastReply == nil || !write(lastReply) {
				return
			}
			continue
		case 3:
			// Interrupt between packets: the target is always stopped, so
			// answer with where the replay stands.
			mPktInterrupt.Inc()
			rep := errNoSession
			if out, errRep := cn.do(timetravel.Command{Cmd: "where"}); errRep == "" {
				rep = stopReply(out)
			}
			lastReply = EncodePacket([]byte(rep))
			if !write(lastReply) {
				return
			}
			continue
		}
		countPacket(f.payload)
		reply, kill := cn.handle(f.payload)
		if f.malformed {
			reply, kill = errMalformed, false
		}
		countErrorReply(reply)
		var buf []byte
		if !cn.noAck {
			buf = append(buf, '+')
		}
		if !kill || reply != "" { // k expects no reply packet
			lastReply = EncodePacket([]byte(reply))
			buf = append(buf, lastReply...)
		}
		if len(buf) > 0 && !write(buf) {
			return
		}
		if cn.startNoAck {
			cn.noAck, cn.startNoAck = true, false
		}
		if kill {
			return
		}
	}
}
