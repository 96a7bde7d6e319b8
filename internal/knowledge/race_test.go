//go:build race

package knowledge

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation bounds skip under it.
const raceEnabled = true
