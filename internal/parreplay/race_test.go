//go:build race

package parreplay

// raceEnabled: the race detector allocates on the instrumented program's
// behalf, so tests that count heap bytes skip under it.
const raceEnabled = true
