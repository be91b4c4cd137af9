//go:build race

package align

// raceEnabled reports whether the race detector is active. Its runtime
// allocates on its own, so allocation-count assertions are not
// meaningful under -race.
const raceEnabled = true
