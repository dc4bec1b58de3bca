package gdbstub

import "bugnet/internal/obs"

// RSP wire metrics. Packet kinds are classified from the first bytes of
// the payload into a fixed set, and error replies are counted only for
// the stub's own E-codes — both label sets are bounded no matter what a
// client sends.
var (
	mConnsTotal = obs.Default.Counter("bugnet_gdb_connections_total",
		"RSP connections accepted.")
	mConnsOpen = obs.Default.Gauge("bugnet_gdb_connections_open",
		"RSP connections currently open.")
	mNaks = obs.Default.Counter("bugnet_gdb_naks_total",
		"Checksum failures NAKed back to the client.")
	packetKinds = obs.Default.CounterVec("bugnet_gdb_packets_total",
		"RSP packets handled, by kind.", "kind")
	mPktQuery     = packetKinds.With("query")
	mPktAttach    = packetKinds.With("attach")
	mPktMotion    = packetKinds.With("motion")
	mPktRegs      = packetKinds.With("regs")
	mPktMem       = packetKinds.With("mem")
	mPktBreak     = packetKinds.With("break")
	mPktSession   = packetKinds.With("session")
	mPktInterrupt = packetKinds.With("interrupt")
	mPktOther     = packetKinds.With("other")
	errorReplies  = obs.Default.CounterVec("bugnet_gdb_errors_total",
		"Error replies sent, by code.", "code")
	mErrE01 = errorReplies.With(errMalformed)
	mErrE02 = errorReplies.With(errNoSession)
	mErrE03 = errorReplies.With(errSessionDed)
	mErrE04 = errorReplies.With(errCapacity)
	mErrE05 = errorReplies.With(errReadOnly)
	mErrE06 = errorReplies.With(errReplay)
)

// countPacket classifies one decoded packet payload.
func countPacket(p []byte) {
	if len(p) == 0 {
		mPktOther.Inc()
		return
	}
	switch p[0] {
	case 'q', 'Q':
		mPktQuery.Inc()
	case 'v':
		if len(p) >= 7 && string(p[:7]) == "vAttach" {
			mPktAttach.Inc()
		} else {
			mPktMotion.Inc() // vCont and friends
		}
	case 's', 'c', 'b':
		mPktMotion.Inc()
	case 'g', 'p':
		mPktRegs.Inc()
	case 'm':
		mPktMem.Inc()
	case 'Z', 'z':
		mPktBreak.Inc()
	case 'H', 'T', '?', '!', 'D', 'k':
		mPktSession.Inc()
	default:
		mPktOther.Inc()
	}
}

// countErrorReply counts replies carrying one of the stub's error codes.
func countErrorReply(reply string) {
	switch reply {
	case errMalformed:
		mErrE01.Inc()
	case errNoSession:
		mErrE02.Inc()
	case errSessionDed:
		mErrE03.Inc()
	case errCapacity:
		mErrE04.Inc()
	case errReadOnly:
		mErrE05.Inc()
	case errReplay:
		mErrE06.Inc()
	}
}
