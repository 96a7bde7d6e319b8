//go:build !race

package knowledge

const raceEnabled = false
