// Package trace mirrors the real internal/trace caller-owned-clock API.
// It sits inside the engine set itself (so the analyzer checks that the
// package never reads a clock — this stand-in is clean), and its
// span-instant parameters are the seam the analyzer guards at engine call
// sites: see internal/reach/spans.go for an engine caught passing time.Now
// into Start and End.
package trace

import "time"

// Event is a minimal stand-in for the real instrumented event.
type Event struct {
	name  string
	start time.Time
}

// Start opens an event at the caller-supplied instant. The now parameter
// is the determinism seam: this package never calls time.Now, so the only
// way an engine result picks up the wall clock is an engine passing it
// here — where the analyzer still sees the reference.
func Start(now time.Time, name string) Event {
	return Event{name: name, start: now}
}

// End finishes the event at the caller-supplied instant, returning its
// duration.
func (e Event) End(now time.Time) time.Duration {
	return now.Sub(e.start)
}
