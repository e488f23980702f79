//go:build race

package reach

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
