//go:build race

package core

// raceEnabled reports whether the test binary runs under the race detector,
// which slows branch-and-bound about twentyfold.
const raceEnabled = true
