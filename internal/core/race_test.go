//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops one Put in four.
const raceEnabled = true
