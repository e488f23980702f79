package metrics

import (
	"sync"

	"crncompose/internal/progress"
)

// ProgressReporter adapts progress.Event streams into per-stage metric
// families, so every engine's throughput shows up on /metrics without
// touching engine code:
//
//	crn_progress_events_total{stage}  counter — events posted
//	crn_progress_units_total{stage}   counter — units of work done
//
// The stage label is the engine's documented stage string
// ("reach.grid", "reach.explore", "sim", "classify.regions",
// "synth.modules"). Event.Done is a running count within one engine
// run, so concurrent runs cannot share one gauge of it; instead each
// run gets its own reporter from Run, which adds the run's Done deltas
// to the shared units counter. Engines post at coarse deterministic
// strides, so the per-event map lookups are cheap relative to the
// work between events.
type ProgressReporter struct {
	events *CounterVec
	units  *CounterVec
}

// NewProgressReporter registers the progress families on r and
// returns the adapter.
func NewProgressReporter(r *Registry) *ProgressReporter {
	return &ProgressReporter{
		events: r.CounterVec("crn_progress_events_total",
			"Progress events posted, by engine stage.", "stage"),
		units: r.CounterVec("crn_progress_units_total",
			"Units of engine work reported done, summed over runs (units are stage-specific: grid inputs, configurations, sim steps, regions, modules).", "stage"),
	}
}

// Run returns the reporter for one engine run. It remembers the run's
// latest Done per stage and adds only the increase, so the units
// counter grows by each run's final Done however many runs post at
// once. A Done below the run's latest for its stage adds nothing, so
// when one run's trials post concurrently (a sim ensemble) the counter
// grows by the furthest trial's Done. Safe for concurrent use.
func (p *ProgressReporter) Run() progress.Reporter {
	return &progressRun{p: p, last: make(map[string]int64)}
}

// progressRun is the per-run state behind Run.
type progressRun struct {
	p    *ProgressReporter
	mu   sync.Mutex
	last map[string]int64 // stage → latest Done
}

// Report implements progress.Reporter.
func (r *progressRun) Report(e progress.Event) {
	r.p.events.With(e.Stage).Inc()
	r.mu.Lock()
	defer r.mu.Unlock()
	if delta := e.Done - r.last[e.Stage]; delta > 0 {
		r.last[e.Stage] = e.Done
		r.p.units.With(e.Stage).Add(uint64(delta))
	}
}
