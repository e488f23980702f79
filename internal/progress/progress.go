// Package progress defines the lightweight progress-reporting seam shared
// by the long-running engines (reach, sim, classify, synth). Engines post
// Events only at the same deterministic points where they poll their
// context — every 1024 heads of a reach exploration, grid-chunk
// boundaries, simulation step windows — so attaching a Reporter never
// perturbs the computed result, only observes it. A nil Reporter is always legal and means "don't report";
// call sites go through Post so they never have to nil-check.
package progress

// Event is one progress sample from an engine.
type Event struct {
	// Stage names the engine loop posting the sample, e.g. "reach.grid",
	// "reach.explore", "sim", "classify.regions", "synth.modules".
	Stage string
	// Done is the monotonically nondecreasing unit count for the stage
	// (grid inputs checked, configurations interned, steps simulated).
	Done int64
	// Total is the known unit total, or 0 when the total is unknown or
	// would overflow (open-ended exploration, huge grids).
	Total int64
}

// Reporter receives Events. Implementations must be cheap — they run on
// the engine's own goroutine at barrier points — and, when a single
// Reporter is shared across concurrent runs (an ensemble, a multi-rect
// job), safe for concurrent use.
type Reporter interface {
	Report(e Event)
}

// Func adapts an ordinary function to the Reporter interface.
type Func func(e Event)

// Report implements Reporter.
func (f Func) Report(e Event) { f(e) }

// Post sends e to r if r is non-nil; the nil-safety lets engines hold an
// optional Reporter without guarding every call site.
func Post(r Reporter, stage string, done, total int64) {
	if r != nil {
		r.Report(Event{Stage: stage, Done: done, Total: total})
	}
}
