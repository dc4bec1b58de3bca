package timetravel

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bugnet/internal/asm"
	"bugnet/internal/core"
)

// ReportSource hands the session layer decoded crash reports. The triage
// service implements it: OpenReport pins the stored blob against store
// eviction for as long as the session is open, and release drops the pin.
type ReportSource interface {
	// OpenReport decodes the stored report and resolves its binary.
	// release must be safe to call more than once. Unknown ids return an
	// error wrapping ErrUnknownReport.
	OpenReport(id string) (rep *core.CrashReport, img *asm.Image, release func(), err error)
}

// ErrUnknownReport marks an OpenReport failure caused by the id, not the
// server — the HTTP layer maps it to 404.
var ErrUnknownReport = errors.New("timetravel: unknown report")

// ErrSessionLimit reports that the concurrent-session cap is reached.
var ErrSessionLimit = errors.New("timetravel: session limit reached")

// ErrClosed reports an operation on a closed manager.
var ErrClosed = errors.New("timetravel: manager closed")

// ManagerConfig parameterizes a session manager.
type ManagerConfig struct {
	// MaxSessions caps concurrently open sessions; each one holds a replay
	// image and a checkpoint set in memory, so the cap is a memory budget
	// as much as a fairness one. Default 8.
	MaxSessions int
	// IdleTimeout closes sessions with no commands for this long, dropping
	// their store pins. Default 10 minutes.
	IdleTimeout time.Duration
	// MaxWindow refuses sessions over reports whose claimed replay window
	// exceeds this many instructions — window lengths are
	// attacker-controlled, and an interactive continue over an unbounded
	// window would pin a server thread. Default 100M.
	MaxWindow uint64
	// Engine configures each session's engine (checkpoint spacing, byte
	// budget, page budget).
	Engine Config
}

func (c *ManagerConfig) fillDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 100_000_000
	}
}

// Session is one interactive time-travel debug session over a stored
// report. Commands are serialized per session; distinct sessions run
// concurrently.
type Session struct {
	ID       string
	ReportID string
	TID      int

	mgr      *Manager
	mu       sync.Mutex
	eng      *Engine
	release  func()
	closed   bool
	lastUsed atomic.Int64 // unix nanos of the last completed command
}

// Do executes one command against the session's engine. lastUsed is
// stamped on entry as well as completion, and while the command holds the
// session mutex the sweep's TryLock treats the session as busy — so a
// long-running command (a reverse-continue over a big window) can never
// be idle-reaped mid-flight.
func (s *Session) Do(c Command) Outcome {
	s.lastUsed.Store(s.mgr.now().UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Outcome{Error: "session closed"}
	}
	out := s.eng.Exec(c)
	s.lastUsed.Store(s.mgr.now().UnixNano())
	return out
}

// close releases the engine and the report pin. Idempotent.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.eng = nil
	if s.release != nil {
		s.release()
	}
}

// SessionInfo is the externally visible session state.
type SessionInfo struct {
	ID          string `json:"id"`
	Report      string `json:"report"`
	TID         int    `json:"tid"`
	Window      uint64 `json:"window"`
	Pos         uint64 `json:"pos"`
	Checkpoints int    `json:"checkpoints"`
	// CkptBytes is the heap the checkpoints retain (what the engine's
	// CheckpointBudget counts), not the unshared size of their images.
	CkptBytes int64   `json:"checkpoint_bytes"`
	IdleSec   float64 `json:"idle_seconds"`
	// Busy marks a session observed mid-command; the engine-derived
	// fields (Window, Pos, ...) are omitted rather than waiting on it.
	Busy  bool       `json:"busy,omitempty"`
	Fault *FaultDesc `json:"fault,omitempty"`
}

// Manager owns the live debug sessions: creation from stored reports,
// lookup, the concurrent-session cap, and idle expiry (a janitor sweeps in
// the background; every API call sweeps too, so expiry does not depend on
// the janitor's granularity).
type Manager struct {
	src ReportSource
	cfg ManagerConfig

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
	stop     chan struct{}

	now func() time.Time // test seam
}

// NewManager starts a session manager over src.
func NewManager(src ReportSource, cfg ManagerConfig) *Manager {
	cfg.fillDefaults()
	m := &Manager{
		src:      src,
		cfg:      cfg,
		sessions: make(map[string]*Session),
		stop:     make(chan struct{}),
		now:      time.Now,
	}
	m.registerOccupancy()
	go m.janitor()
	return m
}

// janitor expires idle sessions even when no requests arrive.
func (m *Manager) janitor() {
	tick := m.cfg.IdleTimeout / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Sweep()
		}
	}
}

// Sweep closes sessions idle past the timeout and returns how many it
// reaped. A session whose command is still executing is never reaped,
// however long it runs: the non-blocking TryLock fails while Do holds the
// session mutex, so the sweep (and the HTTP handler that triggered it)
// neither blocks on it nor tears it down mid-command.
func (m *Manager) Sweep() int {
	cutoff := m.now().Add(-m.cfg.IdleTimeout).UnixNano()
	m.mu.Lock()
	var candidates []*Session
	for _, s := range m.sessions {
		if s.lastUsed.Load() < cutoff {
			candidates = append(candidates, s)
		}
	}
	m.mu.Unlock()
	reaped := 0
	for _, s := range candidates {
		if !s.mu.TryLock() {
			continue // mid-command: busy, not idle
		}
		if !s.closed && s.lastUsed.Load() < cutoff {
			s.closed = true
			s.eng = nil
			if s.release != nil {
				s.release()
			}
			m.mu.Lock()
			delete(m.sessions, s.ID)
			m.mu.Unlock()
			mSessionsOpen.Dec()
			mSessionsReaped.Inc()
			reaped++
		}
		s.mu.Unlock()
	}
	return reaped
}

// Open creates a session over a stored report. tid < 0 selects the
// crashing thread. The returned session is already registered and counts
// against the cap.
func (m *Manager) Open(reportID string, tid int) (*Session, error) {
	m.Sweep()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		mRejectCap.Inc()
		return nil, fmt.Errorf("%w (%d open)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	m.mu.Unlock()

	rep, img, release, err := m.src.OpenReport(reportID)
	if err != nil {
		if errors.Is(err, ErrUnknownReport) {
			mRejectUnknown.Inc()
		} else {
			mRejectErr.Inc()
		}
		return nil, err
	}
	var window uint64
	for _, logs := range rep.FLLs {
		for _, l := range logs {
			if l.Length > m.cfg.MaxWindow-window {
				release()
				mRejectWindow.Inc()
				return nil, fmt.Errorf("timetravel: claimed replay window exceeds the %d-instruction budget", m.cfg.MaxWindow)
			}
			window += l.Length
		}
	}
	eng, tid, err := NewEngineForThread(img, rep, tid, m.cfg.Engine)
	if err != nil {
		release()
		mRejectErr.Inc()
		return nil, err
	}

	id, err := newSessionID()
	if err != nil {
		release()
		mRejectErr.Inc()
		return nil, err
	}
	s := &Session{ID: id, ReportID: reportID, TID: tid, mgr: m, eng: eng, release: release}
	s.lastUsed.Store(m.now().UnixNano())

	m.mu.Lock()
	if m.closed || len(m.sessions) >= m.cfg.MaxSessions {
		// Re-check: the engine build above ran unlocked.
		closed := m.closed
		m.mu.Unlock()
		s.close()
		if closed {
			mRejectErr.Inc()
			return nil, ErrClosed
		}
		mRejectCap.Inc()
		return nil, fmt.Errorf("%w (%d open)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	m.sessions[id] = s
	m.mu.Unlock()
	mSessionsOpen.Inc()
	mSessionsOpened.Inc()
	return s, nil
}

// Get returns a live session by id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.Sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// CloseSession closes one session, reporting whether it existed.
func (m *Manager) CloseSession(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if ok {
		mSessionsOpen.Dec()
		s.close()
	}
	return ok
}

// List describes the live sessions, sorted by id.
func (m *Manager) List() []SessionInfo {
	m.Sweep()
	now := m.now()
	m.mu.Lock()
	out := make([]SessionInfo, 0, len(m.sessions))
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		if info, ok := s.info(now); ok {
			out = append(out, info)
		}
	}
	sortInfos(out)
	return out
}

// info snapshots one session's state; ok is false if it closed meanwhile.
// A session mid-command reports Busy with its engine fields omitted
// rather than blocking the caller behind the running command.
func (s *Session) info(now time.Time) (SessionInfo, bool) {
	base := SessionInfo{
		ID:      s.ID,
		Report:  s.ReportID,
		TID:     s.TID,
		IdleSec: now.Sub(time.Unix(0, s.lastUsed.Load())).Seconds(),
	}
	if !s.mu.TryLock() {
		base.Busy = true
		return base, true
	}
	defer s.mu.Unlock()
	if s.closed {
		return SessionInfo{}, false
	}
	base.Window = s.eng.Window()
	base.Pos = s.eng.Pos()
	base.Checkpoints, base.CkptBytes = s.eng.Checkpoints()
	base.Fault = s.eng.faultDesc()
	return base, true
}

// Info describes one session.
func (m *Manager) Info(id string) (SessionInfo, bool) {
	s, ok := m.Get(id)
	if !ok {
		return SessionInfo{}, false
	}
	return s.info(m.now())
}

// Count returns the number of live sessions.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Capacity returns the live session count and the cap — the readiness
// signal: a manager at capacity rejects every Open until something
// closes or ages out.
func (m *Manager) Capacity() (open, max int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions), m.cfg.MaxSessions
}

// Close shuts the manager down, closing every session and stopping the
// janitor.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stop)
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	mSessionsOpen.Add(-int64(len(sessions)))
	for _, s := range sessions {
		s.close()
	}
}

func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("timetravel: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func sortInfos(infos []SessionInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
}
