//go:build race

package transport

// raceEnabled reports a -race build, whose detector drops sync.Pool
// entries at random: allocation bounds do not hold under it.
const raceEnabled = true
