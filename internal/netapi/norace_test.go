//go:build !race

package netapi

const raceEnabled = false
