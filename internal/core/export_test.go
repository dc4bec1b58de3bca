package core

// SetFetchHookAlways switches every replay machine to the reference
// tracing, which keeps the fetch hook on for every instruction, or back.
func SetFetchHookAlways(on bool) { fetchHookAlways.Store(on) }

// CountHooks wraps m's loggable hook so that each call adds one to hooked,
// and each call that reads replay memory for the dictionary (it injects
// nothing while the reader is feeding) one to reads.
func (m *ReplayMachine) CountHooks(hooked, reads *uint64) {
	st := m.st
	hook := st.c.OnLoggable
	st.c.OnLoggable = func(wordAddr uint32, isWrite bool) {
		*hooked++
		injected, feeding := st.injected, st.reader.Feeding()
		hook(wordAddr, isWrite)
		if feeding && st.injected == injected {
			*reads++
		}
	}
}

// Passing returns how many loggable operations m's core will still let
// through without calling the hook.
func (m *ReplayMachine) Passing() uint64 { return m.st.c.Passing() }
