package trace

import (
	"sort"
	"sync"
	"time"

	"crncompose/internal/metrics"
	"crncompose/internal/progress"
)

// SpanNames is every event name a Seam is started with — the name label
// values of crn_span_duration_seconds, kept to this fixed list so label
// cardinality stays bounded. internal/serve's TestSeamNameSet pins it.
//
//	serve.request            one /v1/* request, decode to write
//	serve.resolve            a check request's parse to canonical key
//	                         (resolveCheck), under serve.request
//	serve.cache.lookup       the /v1/check cache probe (outcome hit | miss)
//	serve.cache.hit          a replayed cached body
//	serve.singleflight.park  a request that joined an identical computation
//	serve.compute            the request that ran the engine
//	serve.job                an async job, admission to terminal state
//	serve.job.admission      an async job's queue wait
//	serve.rect               one job rectangle checked in-process
//	serve.degrade            a dist handoff finishing locally
//	dist.job                 a coordinator run, construction to merge
//	dist.lease               one lease, grant to result (ok), expiry or loss
//	dist.merge               the coordinator's grid-order fold
//	dist.rect                one leased rectangle on a worker
//	httpx.attempt            one HTTP attempt of the retry client
//	crncheck.check           a local crncheck grid
//	crnsim.ensemble          a crnsim ensemble
//	crnsynth.compile         crnsynth's classify-and-build pipeline
//	crnsynth.verify          crnsynth -verify's grid check
//	reach.grid, reach.explore, sim, classify.regions, synth.modules
//	                         engine stages, from the progress adapter
var SpanNames = []string{
	"serve.request", "serve.resolve", "serve.cache.lookup", "serve.cache.hit",
	"serve.singleflight.park", "serve.compute",
	"serve.job", "serve.job.admission", "serve.rect", "serve.degrade",
	"dist.job", "dist.lease", "dist.merge", "dist.rect",
	"httpx.attempt", "crncheck.check",
	"crnsim.ensemble", "crnsynth.compile", "crnsynth.verify",
	"reach.grid", "reach.explore", "sim", "classify.regions", "synth.modules",
}

// spanBuckets is the crn_span_duration_seconds layout: 100 µs (a cached
// request's cache probe) to 300 s (a whole rectangle or job).
var spanBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1,
	.25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Seam is one layer's instrumentation: the tracer, metrics registry and
// log hook that layer already has, behind one call per event. Start opens
// an Event; its End records the span (when traced) and observes
//
//	crn_span_duration_seconds{name,outcome}  histogram
//
// (when a registry is set), and its Logf stamps the line with the event's
// trace and span ids. Every instant comes from the caller, like the rest of
// the package. Any of the three parts may be nil; so may the *Seam itself,
// which then records nothing. Safe for concurrent use.
type Seam struct {
	tr   *Tracer
	reg  *metrics.Registry
	logf func(format string, args ...any)
	dur  *metrics.HistogramVec // nil without a registry
}

// NewSeam builds a layer's seam. With a registry it registers
// crn_span_duration_seconds at once, so a scrape advertises the family
// before the first event.
func NewSeam(t *Tracer, reg *metrics.Registry, logf func(format string, args ...any)) *Seam {
	s := &Seam{tr: t, reg: reg, logf: logf}
	if reg != nil {
		s.dur = reg.HistogramVec("crn_span_duration_seconds",
			"Duration of instrumented events, by event name (trace.SpanNames) and outcome.",
			spanBuckets, "name", "outcome")
	}
	return s
}

// Logf emits one line through the seam's log hook, unstamped — for lines
// that belong to no event. Nil-safe.
func (s *Seam) Logf(format string, args ...any) {
	if s != nil && s.logf != nil {
		s.logf(format, args...)
	}
}

// Event is one instrumented operation, open from Seam.Start until End. The
// zero Event is valid and records nothing.
type Event struct {
	s     *Seam
	sp    *Span
	sc    SpanContext
	name  string
	start time.Time
}

// Start opens the event name at now under parent. When traced, it starts a
// span with attrs; untraced, the event still carries parent, so its Context
// keeps propagating the caller's trace and its Logf keeps stamping it.
func (s *Seam) Start(now time.Time, name string, parent SpanContext, attrs ...Attr) Event {
	if s == nil {
		return Event{sc: parent}
	}
	e := Event{s: s, sc: parent, name: name, start: now}
	if s.tr != nil {
		e.sp = s.tr.StartSpan(now, name, parent, attrs...)
		e.sc = e.sp.Context()
	}
	return e
}

// Context returns the event's span context, or its parent's when untraced.
func (e Event) Context() SpanContext { return e.sc }

// SetAttr sets one span attribute (a no-op when untraced).
func (e Event) SetAttr(key, value string) { e.sp.SetAttr(key, value) }

// End finishes the event at now: the span, when traced, ends with attrs and
// an "outcome" attribute, and crn_span_duration_seconds{name,outcome}
// observes now - start when the seam has a registry. Outcomes are short
// fixed words ("ok", "error", "hit", ...), never free text. End once.
func (e Event) End(now time.Time, outcome string, attrs ...Attr) {
	if e.s == nil {
		return
	}
	if e.sp != nil {
		e.sp.End(now, append(attrs, String("outcome", outcome))...)
	}
	if e.s.dur != nil {
		e.s.dur.With(e.name, outcome).ObserveSince(e.start, now)
	}
}

// Outcome is the outcome of an event whose work returned err: "error" or
// "ok".
func Outcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// Logf emits one line through the seam's log hook with the event's trace
// and span ids appended as trailing key=value fields, " trace=<id>
// span=<id>" — the cross-reference between the log stream and
// /debug/traces. A line of an event with no valid context is unstamped.
func (e Event) Logf(format string, args ...any) {
	if e.s == nil || e.s.logf == nil {
		return
	}
	if e.sc.Valid() {
		format += " trace=%s span=%s"
		args = append(args, e.sc.TraceID.String(), e.sc.SpanID.String())
	}
	e.s.logf(format, args...)
}

// Progress is one engine run's progress adapter on the seam: each stage's
// first event ("reach.grid", "reach.explore", "sim", "classify.regions",
// "synth.modules") opens a stage Event under the run's parent, and Finish
// ends them all. With a registry every event also feeds
//
//	crn_progress_events_total{stage}  counter — events posted
//	crn_progress_units_total{stage}   counter — units of work done
//
// where units grow by the increase of the run's Done per stage, so
// concurrent runs sum instead of overwriting one another. Engines only post
// events: the clock is the layer's, passed to Seam.Progress. Safe for
// concurrent use — concurrent runs post from their own goroutines.
type Progress struct {
	s        *Seam
	clock    func() time.Time
	parent   SpanContext
	logEvery time.Duration

	mu      sync.Mutex
	stages  map[string]*stageRun
	lastLog time.Time
	done    bool
}

// stageRun is one stage's state within a run.
type stageRun struct {
	ev            Event
	events, units *metrics.Counter // nil without a registry
	last          progress.Event
	maxDone       int64
}

// Progress returns the adapter for one engine run under parent; clock
// timestamps each stage's first event. A positive logEvery also logs the
// latest "<stage> <done>/<total>" through the stage event's Logf at most
// that often (crncheck -progress); zero logs nothing. Never nil.
func (s *Seam) Progress(clock func() time.Time, parent SpanContext, logEvery time.Duration) *Progress {
	return &Progress{s: s, clock: clock, parent: parent, logEvery: logEvery, stages: make(map[string]*stageRun)}
}

// Report implements progress.Reporter.
func (p *Progress) Report(e progress.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	st := p.stages[e.Stage]
	if st == nil {
		st = &stageRun{ev: p.s.Start(p.clock(), e.Stage, p.parent)}
		if p.s != nil && p.s.reg != nil {
			st.events = p.s.reg.CounterVec("crn_progress_events_total",
				"Progress events posted, by engine stage.", "stage").With(e.Stage)
			st.units = p.s.reg.CounterVec("crn_progress_units_total",
				"Units of engine work reported done, summed over runs (units are stage-specific: grid inputs, configurations, sim steps, regions, modules).", "stage").With(e.Stage)
		}
		p.stages[e.Stage] = st
	}
	st.last = e
	if st.events != nil {
		st.events.Inc()
		if e.Done > st.maxDone {
			st.units.Add(uint64(e.Done - st.maxDone))
		}
	}
	st.maxDone = max(st.maxDone, e.Done)
	if p.logEvery > 0 {
		if now := p.clock(); now.Sub(p.lastLog) >= p.logEvery {
			p.lastLog = now
			st.ev.Logf("%s %d/%d", e.Stage, e.Done, e.Total)
		}
	}
}

// Finish ends every stage event at now with outcome and the stage's last
// done/total counts, in sorted stage order so the recording order is a
// function of the stage set. Idempotent; events after Finish are dropped.
func (p *Progress) Finish(now time.Time, outcome string) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	names := make([]string, 0, len(p.stages))
	for name := range p.stages {
		names = append(names, name)
	}
	p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		st := p.stages[name]
		st.ev.End(now, outcome, Int("done", st.last.Done), Int("total", st.last.Total))
	}
}
