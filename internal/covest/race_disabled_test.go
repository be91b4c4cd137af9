//go:build !race

package covest

const raceEnabled = false
