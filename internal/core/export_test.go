package core

// SetFetchHookAlways switches every replay machine to the reference
// tracing, which keeps the fetch hook on for every instruction, or back.
func SetFetchHookAlways(on bool) { fetchHookAlways.Store(on) }
