//go:build !race

package parreplay

const raceEnabled = false
