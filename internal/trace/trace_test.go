package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crncompose/internal/metrics"
	"crncompose/internal/progress"
)

// testTracer returns a tracer with a deterministic id stream.
func testTracer(capacity int) *Tracer {
	var n uint64
	return New(Options{Proc: "test", Cap: capacity, Rand: func() uint64 {
		n++
		return n
	}})
}

func at(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }

func TestTraceparentRoundTrip(t *testing.T) {
	sp := NewSeam(testTracer(16), nil, nil).Start(at(1), "root", SpanContext{})
	hdr := sp.Context().Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("bad traceparent %q", hdr)
	}
	sc, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip: got %+v want %+v", sc, sp.Context())
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // unknown version
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
		"00-0123456789abcdef0123456789abcdeX-0123456789abcdef-01", // non-hex
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01x",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", // uppercase ids
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // non-hex flags
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q): want error", s)
		} else if !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("ParseTraceparent(%q): error %q lacks package prefix", s, err)
		}
	}
}

func TestSpanLifecycleAndLinkage(t *testing.T) {
	tr := testTracer(16)
	s := NewSeam(tr, nil, nil)
	root := s.Start(at(10), "root", SpanContext{}, String("kind", "server"))
	// End's attribute overrides Start's under the same key.
	child := s.Start(at(20), "child", root.Context(), String("items", "0"))
	child.End(at(30), "ok", Int("items", 3))
	root.End(at(40), "ok")
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected recording order: %q, %q", c.Name, r.Name)
	}
	if c.TraceID != r.TraceID {
		t.Fatalf("child trace %s != root trace %s", c.TraceID, r.TraceID)
	}
	if c.Parent != r.SpanID {
		t.Fatalf("child parent %s != root span %s", c.Parent, r.SpanID)
	}
	if r.Parent != "" {
		t.Fatalf("root has parent %s", r.Parent)
	}
	if c.Start != at(20).UnixNano() || c.End != at(30).UnixNano() {
		t.Fatalf("child instants %d..%d", c.Start, c.End)
	}
	if r.Start != at(10).UnixNano() || r.End != at(40).UnixNano() {
		t.Fatalf("root instants %d..%d", r.Start, r.End)
	}
	if c.Attrs["items"] != "3" || r.Attrs["kind"] != "server" || r.Proc != "test" {
		t.Fatalf("attrs/proc not recorded: %+v / %+v", c, r)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ev := NewSeam(tr, nil, nil).Start(at(1), "x", SpanContext{})
	ev.End(at(2), "ok")
	if ev.Context().Valid() {
		t.Fatal("an event on a nil tracer must have an invalid context")
	}
	tr.Record(SpanData{})
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if got := tr.TraceSpans(ev.Context().TraceID.String()); got != nil {
		t.Fatalf("nil tracer trace spans = %v", got)
	}
	if rec, drop := tr.Stats(); rec != 0 || drop != 0 {
		t.Fatal("nil tracer stats must be zero")
	}
	tr.CountSpans(metrics.NewRegistry())
	testTracer(16).CountSpans(nil)
}

func TestRingEviction(t *testing.T) {
	tr := testTracer(4)
	reg := metrics.NewRegistry()
	tr.CountSpans(reg)
	s := NewSeam(tr, nil, nil)
	for i := 0; i < 10; i++ {
		s.Start(at(int64(i)), "s", SpanContext{}, Int("i", int64(i))).End(at(int64(i)+1), "ok")
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, d := range spans {
		if want := int64(6 + i); d.Attrs["i"] != Int("i", want).Value {
			t.Fatalf("span %d is i=%s, want %d (oldest-first order)", i, d.Attrs["i"], want)
		}
	}
	rec, drop := tr.Stats()
	if rec != 10 || drop != 6 {
		t.Fatalf("stats = (%d, %d), want (10, 6)", rec, drop)
	}
	got := render(t, reg)
	for _, want := range []string{"crn_trace_spans_total 10\n", "crn_trace_spans_dropped_total 6\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

// fixedSpanSet is a span set with unsorted insertion order, two traces,
// and attrs, for the export determinism tests.
func fixedSpanSet() []SpanData {
	return []SpanData{
		{TraceID: "bb", SpanID: "02", Name: "late", Proc: "p2", Start: 500, End: 900},
		{TraceID: "aa", SpanID: "03", Parent: "01", Name: "child", Proc: "p1", Start: 200, End: 300,
			Attrs: map[string]string{"b": "2", "a": "1"}},
		{TraceID: "aa", SpanID: "01", Name: "root", Proc: "p1", Start: 100, End: 400},
	}
}

func TestExportChromeTrace(t *testing.T) {
	a, err := ExportChromeTrace(fixedSpanSet())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExportChromeTrace([]SpanData{fixedSpanSet()[2], fixedSpanSet()[0], fixedSpanSet()[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chrome export depends on insertion order")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 2 process_name metadata events + 3 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5: %s", len(doc.TraceEvents), a)
	}
	var xs, ms int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xs++
		case "M":
			ms++
		}
	}
	if xs != 3 || ms != 2 {
		t.Fatalf("got %d X and %d M events, want 3 and 2", xs, ms)
	}
}

func TestHandler(t *testing.T) {
	tr := testTracer(16)
	s := NewSeam(tr, nil, nil)
	r1 := s.Start(at(1), "one", SpanContext{})
	r1.End(at(2), "ok")
	s.Start(at(3), "two", SpanContext{}).End(at(4), "ok")

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/traces")
	var doc tracesDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad body: %v\n%s", err, rec.Body)
	}
	if doc.Recorded != 2 || doc.Dropped != 0 || len(doc.Traces) != 2 {
		t.Fatalf("doc = %+v", doc)
	}

	id := r1.Context().TraceID.String()
	rec = get("/debug/traces?trace=" + id)
	doc = tracesDoc{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].TraceID != id || doc.Traces[0].Spans[0].Name != "one" {
		t.Fatalf("filtered doc = %+v", doc)
	}

	rec = get("/debug/traces?format=chrome")
	if !bytes.Contains(rec.Body.Bytes(), []byte("traceEvents")) {
		t.Fatalf("chrome format body: %s", rec.Body)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := testTracer(16)
	s := NewSeam(tr, nil, nil)
	a := s.Start(at(1), "a", SpanContext{})
	a.End(at(2), "ok")
	s.Start(at(3), "b", SpanContext{}).End(at(4), "ok")
	got := tr.TraceSpans(a.Context().TraceID.String())
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("TraceSpans = %+v", got)
	}
}

// TestRecordRoundTrip: the spans a worker tracer renders with TraceSpans,
// shipped as JSON and recorded on a second tracer, render back as the
// identical SpanData there.
func TestRecordRoundTrip(t *testing.T) {
	worker := testTracer(16)
	s := NewSeam(worker, nil, nil)
	rect := s.Start(at(1), "dist.rect", SpanContext{}, Int("rect", 3), String("worker", "w1"))
	s.Start(at(2), "httpx.attempt", rect.Context()).End(at(3), "ok", String("status", "200"))
	rect.End(at(4), "ok", Int("checked", 9))
	s.Start(at(5), "other", SpanContext{}).End(at(6), "ok")
	shipped := worker.TraceSpans(rect.Context().TraceID.String())
	if len(shipped) != 2 {
		t.Fatalf("worker rendered %d spans, want 2: %+v", len(shipped), shipped)
	}
	b, err := json.Marshal(shipped)
	if err != nil {
		t.Fatal(err)
	}
	var wire []SpanData
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	coord := New(Options{Proc: "coordinator"})
	for _, d := range wire {
		coord.Record(d)
	}
	if got := coord.TraceSpans(rect.Context().TraceID.String()); !reflect.DeepEqual(got, shipped) {
		t.Fatalf("recorded spans render as\n%+v\nwant\n%+v", got, shipped)
	}
}

// TestRecordDropsMalformed: a shipped span whose trace, span or parent id
// breaks ParseTraceparent's rules is dropped, not recorded or panicked on.
func TestRecordDropsMalformed(t *testing.T) {
	good := SpanData{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7",
		Parent: "00f067aa0ba902b8", Name: "dist.rect", Proc: "worker", Start: 1, End: 2,
	}
	bad := []func(d *SpanData){
		func(d *SpanData) { d.TraceID = strings.ToUpper(d.TraceID) },
		func(d *SpanData) { d.TraceID = d.TraceID[:30] },
		func(d *SpanData) { d.TraceID = "" },
		func(d *SpanData) { d.TraceID = strings.Repeat("0", 32) },
		func(d *SpanData) { d.SpanID = "00f067aa0ba902bx" },
		func(d *SpanData) { d.SpanID = d.SpanID + "00" },
		func(d *SpanData) { d.SpanID = strings.Repeat("0", 16) },
		func(d *SpanData) { d.Parent = strings.ToUpper("00f067aa0ba902bf") },
		func(d *SpanData) { d.Parent = "00f067aa" },
		func(d *SpanData) { d.Parent = "00f067aa0ba902g8" },
		func(d *SpanData) { d.Parent = strings.Repeat("0", 16) },
	}
	tr := testTracer(16)
	for i, mutate := range bad {
		d := good
		mutate(&d)
		tr.Record(d)
		if rec, _ := tr.Stats(); rec != 0 {
			t.Fatalf("case %d: recorded malformed span %+v", i, d)
		}
	}
	root := good
	root.Parent = ""
	tr.Record(good)
	tr.Record(root)
	if got := tr.Snapshot(); !reflect.DeepEqual(got, []SpanData{good, root}) {
		t.Fatalf("well-formed spans render as %+v", got)
	}
}

func TestLogfStamping(t *testing.T) {
	var lines []string
	base := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	tr := testTracer(16)
	ev := NewSeam(tr, nil, base).Start(at(1), "op", SpanContext{})
	ev.Logf("leased rect %d", 7)
	want := "leased rect 7 trace=" + ev.Context().TraceID.String() + " span=" + ev.Context().SpanID.String()
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("got %q, want %q", lines, want)
	}
	// Untraced, an event stamps its parent's ids, and with no valid
	// context at all the line goes out unstamped.
	untraced := NewSeam(nil, nil, base)
	untraced.Start(at(1), "op", ev.Context()).Logf("child")
	untraced.Start(at(1), "op", SpanContext{}).Logf("bare")
	if len(lines) != 3 || lines[1] != "child"+want[len("leased rect 7"):] || lines[2] != "bare" {
		t.Fatalf("untraced lines %q", lines[1:])
	}
	// No log hook, or no seam: nothing is emitted and nothing panics.
	NewSeam(tr, nil, nil).Start(at(1), "op", SpanContext{}).Logf("dropped")
	var nilSeam *Seam
	nilSeam.Start(at(1), "op", SpanContext{}).Logf("dropped")
	nilSeam.Logf("dropped")
	if len(lines) != 3 {
		t.Fatalf("lines emitted without a hook: %q", lines[3:])
	}
}

// TestSeamEnd pins the one-call contract: End records the span with its
// outcome attribute and observes crn_span_duration_seconds{name,outcome}
// over the caller's instants; either half works without the other.
func TestSeamEnd(t *testing.T) {
	tr := testTracer(16)
	reg := metrics.NewRegistry()
	s := NewSeam(tr, reg, nil)
	ev := s.Start(at(10), "dist.lease", SpanContext{}, Int("rect", 3))
	ev.End(at(260), "ok", Int("extra", 1))
	s.Start(at(0), "dist.lease", ev.Context()).End(at(2000), "expired")

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if d := spans[0]; d.Name != "dist.lease" || d.Attrs["outcome"] != "ok" ||
		d.Attrs["rect"] != "3" || d.Attrs["extra"] != "1" || d.End != at(260).UnixNano() {
		t.Fatalf("span %+v", d)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`crn_span_duration_seconds_count{name="dist.lease",outcome="ok"} 1`,
		`crn_span_duration_seconds_sum{name="dist.lease",outcome="ok"} 0.25`,
		`crn_span_duration_seconds_bucket{name="dist.lease",outcome="ok",le="0.1"} 0`,
		`crn_span_duration_seconds_bucket{name="dist.lease",outcome="ok",le="0.25"} 1`,
		`crn_span_duration_seconds_count{name="dist.lease",outcome="expired"} 1`,
		`crn_span_duration_seconds_bucket{name="dist.lease",outcome="expired",le="300"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}

	// Metrics only: no span, and the parent still propagates.
	untraced := NewSeam(nil, reg, nil).Start(at(0), "serve.request", ev.Context())
	if untraced.Context() != ev.Context() {
		t.Fatalf("untraced event context %+v, want its parent %+v", untraced.Context(), ev.Context())
	}
	untraced.End(at(1), "ok")
	if n := len(tr.Snapshot()); n != 2 {
		t.Fatalf("untraced event recorded a span: %d spans", n)
	}
	// A registry-less, tracer-less seam and the zero Event are no-ops.
	NewSeam(nil, nil, nil).Start(at(0), "x", SpanContext{}).End(at(1), "ok")
	Event{}.End(at(1), "ok")
}

func TestContextPlumbing(t *testing.T) {
	sp := NewSeam(testTracer(16), nil, nil).Start(at(1), "op", SpanContext{})
	ctx := ContextWith(t.Context(), sp.Context())
	if got := FromContext(ctx); got != sp.Context() {
		t.Fatalf("FromContext = %+v, want %+v", got, sp.Context())
	}
	if FromContext(t.Context()).Valid() {
		t.Fatal("empty context must yield invalid span context")
	}
}

func TestProgressReporter(t *testing.T) {
	tr := testTracer(16)
	parent := NewSeam(tr, nil, nil).Start(at(1), "job", SpanContext{})
	clockNow := at(5)
	var lines []string
	s := NewSeam(tr, nil, func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) })
	pr := s.Progress(func() time.Time { return clockNow }, parent.Context(), time.Second)
	pr.Report(progress.Event{Stage: "reach.grid", Done: 1, Total: 10})
	clockNow = at(6)
	pr.Report(progress.Event{Stage: "reach.explore", Done: 100, Total: 0})
	pr.Report(progress.Event{Stage: "reach.grid", Done: 9, Total: 10})
	pr.Finish(at(9), "ok")
	pr.Finish(at(99), "error") // idempotent
	pr.Report(progress.Event{Stage: "late", Done: 1, Total: 1})
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	// Finish ends stages in sorted order: reach.explore then reach.grid.
	explore, grid := spans[0], spans[1]
	if explore.Name != "reach.explore" || grid.Name != "reach.grid" {
		t.Fatalf("stage order: %q, %q", explore.Name, grid.Name)
	}
	if grid.Parent != parent.Context().SpanID.String() {
		t.Fatalf("stage span parent %s, want %s", grid.Parent, parent.Context().SpanID)
	}
	if grid.Start != at(5).UnixNano() || grid.End != at(9).UnixNano() {
		t.Fatalf("grid instants %d..%d", grid.Start, grid.End)
	}
	if grid.Attrs["done"] != "9" || grid.Attrs["total"] != "10" || grid.Attrs["outcome"] != "ok" {
		t.Fatalf("grid attrs %+v", grid.Attrs)
	}
	// One log line per second of the injected clock: only the first event's.
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "reach.grid 1/10 trace=") {
		t.Fatalf("progress log lines %q", lines)
	}
}

func TestProgressUnits(t *testing.T) {
	r := metrics.NewRegistry()
	s := NewSeam(nil, r, nil)
	clock := func() time.Time { return at(0) }
	grid := s.Progress(clock, SpanContext{}, 0)
	grid.Report(progress.Event{Stage: "reach.grid", Done: 4, Total: 16})
	grid.Report(progress.Event{Stage: "reach.grid", Done: 16, Total: 16})
	s.Progress(clock, SpanContext{}, 0).Report(progress.Event{Stage: "sim", Done: 4096, Total: 0})

	got := render(t, r)
	for _, want := range []string{
		`crn_progress_events_total{stage="reach.grid"} 2`,
		`crn_progress_events_total{stage="sim"} 1`,
		`crn_progress_units_total{stage="reach.grid"} 16`,
		`crn_progress_units_total{stage="sim"} 4096`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

// TestProgressReporterConcurrentRuns pins the units counter to the sum of
// every run's final Done when runs interleave, which a latest-Done gauge
// could not report.
func TestProgressReporterConcurrentRuns(t *testing.T) {
	r := metrics.NewRegistry()
	s := NewSeam(nil, r, nil)
	finals := []int64{700, 1300}
	var wg sync.WaitGroup
	for _, final := range finals {
		run := s.Progress(func() time.Time { return at(0) }, SpanContext{}, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := int64(0); done <= final; done += 100 {
				run.Report(progress.Event{Stage: "reach.grid", Done: done, Total: final})
			}
		}()
	}
	wg.Wait()
	want := fmt.Sprintf(`crn_progress_units_total{stage="reach.grid"} %d`, finals[0]+finals[1])
	if got := render(t, r); !strings.Contains(got, want) {
		t.Fatalf("missing %q in:\n%s", want, got)
	}
}

func render(t *testing.T, r *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}
