package timetravel

import (
	"time"

	"bugnet/internal/obs"
)

// Debug-session metrics. The session gauge tracks membership in the
// manager's table (registered in Open, removed by CloseSession, Sweep,
// or manager Close), so it balances no matter which teardown path runs.
var (
	mSessionsOpen = obs.Default.Gauge("bugnet_debug_sessions_open",
		"Debug sessions currently open.")
	mSessionsOpened = obs.Default.Counter("bugnet_debug_sessions_opened_total",
		"Debug sessions opened.")
	mSessionsReaped = obs.Default.Counter("bugnet_debug_sessions_reaped_total",
		"Debug sessions closed by the idle sweeper.")
	sessionRejects = obs.Default.CounterVec("bugnet_debug_sessions_rejected_total",
		"Session opens refused, by reason.", "reason")
	mRejectCap     = sessionRejects.With("cap")
	mRejectWindow  = sessionRejects.With("window")
	mRejectUnknown = sessionRejects.With("unknown_report")
	mRejectErr     = sessionRejects.With("error")

	cmdSeconds = obs.Default.HistogramVec("bugnet_debug_command_seconds",
		"Debug command latency by verb.", nil, "verb")

	// verbHists preallocates one histogram per known verb so Exec pays a
	// map lookup, not a registry lock; unknown input lands in "other" and
	// the label set stays bounded no matter what clients send.
	verbHists = map[string]*obs.Histogram{
		"step":      cmdSeconds.With("step"),
		"rstep":     cmdSeconds.With("rstep"),
		"cont":      cmdSeconds.With("cont"),
		"continue":  cmdSeconds.With("cont"),
		"rcont":     cmdSeconds.With("rcont"),
		"seek":      cmdSeconds.With("seek"),
		"runto":     cmdSeconds.With("runto"),
		"break":     cmdSeconds.With("break"),
		"delete":    cmdSeconds.With("delete"),
		"watch":     cmdSeconds.With("watch"),
		"unwatch":   cmdSeconds.With("unwatch"),
		"regs":      cmdSeconds.With("regs"),
		"mem":       cmdSeconds.With("mem"),
		"backtrace": cmdSeconds.With("backtrace"),
		"where":     cmdSeconds.With("where"),
	}
	otherVerbHist = cmdSeconds.With("other")

	// Tail traffic (see the package doc), counted per motion, never per
	// instruction: how each engine's first motion opened it, what made an
	// engine on the tail replay its older history and how long that took,
	// and the engines on the tail that stepped back past the one grid
	// checkpoint their open laid.
	opens = obs.Default.CounterVec("bugnet_debug_opens_total",
		"Debug engines by how their first motion replayed: the window's tail alone, or the whole window.", "mode")
	mOpenTail  = opens.With("tail")
	mOpenEager = opens.With("eager")
	fills      = obs.Default.CounterVec("bugnet_debug_fills_total",
		"Replays of older history by engines opened on the tail, by the command that needed it.", "trigger")
	mFillSeek  = fills.With("seek")
	mFillMem   = fills.With("mem")
	mFillWatch = fills.With("watch")
	mFillRcont = fills.With("rcont")
	mFillStep  = fills.With("step")
	mTailGrids = obs.Default.Counter("bugnet_debug_tail_grids_total",
		"Engines opened on the tail that moved back past the grid checkpoint the open laid before its target, into the stretch it laid none over; counted at the first such motion.")
	mFillSeconds = obs.Default.Histogram("bugnet_debug_fill_seconds",
		"Time to replay older history for an engine opened on the tail.")
)

func observeCommand(verb string, start time.Time) {
	h := verbHists[verb]
	if h == nil {
		h = otherVerbHist
	}
	h.Since(start)
}

// registerOccupancy publishes the heap the manager's sessions retain in
// checkpoints (the engines' budget occupancy) as a scrape-time gauge. Sessions mid-command are skipped
// (TryLock) so a scrape never waits behind a reverse-continue.
func (m *Manager) registerOccupancy() {
	obs.Default.GaugeFunc("bugnet_debug_checkpoint_bytes",
		"Heap bytes retained by the checkpoints of open debug sessions: copy-on-write pages, bitmaps, leaves and directories, shared parts counted once (busy sessions excluded).",
		func() float64 {
			m.mu.Lock()
			sessions := make([]*Session, 0, len(m.sessions))
			for _, s := range m.sessions {
				sessions = append(sessions, s)
			}
			m.mu.Unlock()
			var total int64
			for _, s := range sessions {
				if !s.mu.TryLock() {
					continue
				}
				if !s.closed {
					_, bytes := s.eng.Checkpoints()
					total += bytes
				}
				s.mu.Unlock()
			}
			return float64(total)
		})
}
