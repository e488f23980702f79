//go:build !race

package trace

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
