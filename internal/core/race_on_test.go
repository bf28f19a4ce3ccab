//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random, so allocation counts are not exact.
const raceEnabled = true
