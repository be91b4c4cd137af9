//go:build race

package mmwalign

// The race detector's instrumentation allocates, so TestBenchGolden
// skips its allocation checks under -race.
func init() { raceEnabled = true }
