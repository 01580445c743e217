//go:build race

package harness

// raceEnabled reports whether the race detector is compiled in; the golden
// run is skipped under -race, where the full E-series takes minutes.
const raceEnabled = true
