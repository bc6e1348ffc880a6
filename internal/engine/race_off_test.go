//go:build !race

package engine_test

// raceEnabled reports whether the race detector is active; the stress
// tests run fewer rounds under its instrumentation.
const raceEnabled = false
