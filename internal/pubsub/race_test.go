//go:build race

package pubsub

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation bounds do not hold under it.
const raceEnabled = true
