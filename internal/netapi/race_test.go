//go:build race

package netapi

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation bounds do not hold under it.
const raceEnabled = true
