// Package trace is the in-process distributed-tracing spine: a span
// recorder with W3C-style trace-context propagation, a bounded ring buffer
// of finished spans, and deterministic export (sorted JSON, Chrome
// trace-event JSON loadable in Perfetto).
//
// # Caller-owned clocks
//
// Like internal/metrics, this package never reads a clock: every instant —
// StartSpan's start, End's end — is passed in by the caller. That keeps the
// crnlint determinism analyzer meaningful for the engine packages (this
// package is itself in the engine set): an engine cannot launder time.Now
// through a span without the reference appearing at its own call site,
// where the analyzer flags it. Engines never trace themselves; the serving
// layers (httpx, serve, dist, the CLIs) own both the spans and the clocks,
// and engine work shows up as spans via the progress adapter
// (Seam.Progress), whose clock is injected by those layers too.
//
// # One seam per layer
//
// A layer instruments an event with one call: Seam.Start opens it, and its
// End records the span, observes crn_span_duration_seconds{name,outcome}
// and closes it, while its Logf stamps the event's log lines with the trace
// and span ids. Event names come from the fixed SpanNames list.
//
// # Propagation
//
// A SpanContext travels as a W3C traceparent header value
// ("00-<trace-id>-<span-id>-01"): httpx injects it per attempt, serve
// parses it off incoming /v1/* requests, and the dist protocol carries it
// in lease responses so a worker's rectangle span joins the trace that
// submitted the job. Within a process it travels on context.Context
// (ContextWith / FromContext).
//
// # Nil safety
//
// A nil *Tracer is "tracing disabled": StartSpan returns a nil *Span, and
// every *Span method is a no-op on nil, so call sites never guard. This is
// the same contract the metrics layer uses for nil registries.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"crncompose/internal/metrics"
)

// DefaultCap is the span ring-buffer capacity when Options.Cap is zero.
const DefaultCap = 4096

// TraceID is the 16-byte W3C trace identifier. The zero value is invalid.
type TraceID [16]byte

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C span identifier. The zero value is invalid.
type SpanID [8]byte

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext identifies one span within one trace — the unit of
// propagation. The zero value is invalid (no active trace).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both ids are nonzero.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != (TraceID{}) && sc.SpanID != (SpanID{})
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled), or "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are rejected; so are all-zero ids and ids or flags that are not
// lowercase hex, per the spec (a parent that breaks them is ignored).
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	if len(s) < 55 {
		return sc, fmt.Errorf("trace: traceparent %q: too short", s)
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, fmt.Errorf("trace: traceparent %q: bad field layout", s)
	}
	if s[:2] != "00" {
		return sc, fmt.Errorf("trace: traceparent %q: unsupported version %q", s, s[:2])
	}
	if len(s) != 55 {
		return sc, fmt.Errorf("trace: traceparent %q: bad length %d", s, len(s))
	}
	if !lowerHex(s[3:35]) || !lowerHex(s[36:52]) || !lowerHex(s[53:]) {
		return sc, fmt.Errorf("trace: traceparent %q: ids and flags must be lowercase hex", s)
	}
	// Neither decode can fail: both fields are lowercase hex of even length.
	_, _ = hex.Decode(sc.TraceID[:], []byte(s[3:35]))
	_, _ = hex.Decode(sc.SpanID[:], []byte(s[36:52]))
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: all-zero id", s)
	}
	return sc, nil
}

// lowerHex reports whether s holds only the digits 0-9 and a-f.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ctxKey keys the active SpanContext on a context.Context.
type ctxKey struct{}

// ContextWith returns ctx carrying sc as the active span context.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the active span context, or the zero (invalid)
// SpanContext when none is set.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// Attr is one key=value span attribute. Values are strings on the wire;
// use the String/Int/Bool constructors.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// SpanData is one finished span — the ring buffer's element and the wire
// form shipped between processes (dist workers attach theirs to result
// reports). Attrs serializes with sorted keys (encoding/json's map rule),
// so identical span sets encode to identical bytes.
type SpanData struct {
	TraceID string            `json:"trace_id"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_span_id,omitempty"`
	Name    string            `json:"name"`
	Proc    string            `json:"proc,omitempty"`
	Start   int64             `json:"start_unix_nano"`
	End     int64             `json:"end_unix_nano"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// Proc labels every span with the recording process/component
	// ("crnserve", "crncheck-worker"); exports group by it.
	Proc string
	// Cap bounds the finished-span ring buffer (0 = DefaultCap). When full,
	// the oldest span is overwritten and the dropped counter advances.
	Cap int
	// Rand draws id entropy. Nil seeds a ChaCha8 generator from the OS
	// entropy pool once at construction; injectable so tests can pin ids.
	Rand func() uint64
}

// Tracer records finished spans into a bounded ring buffer. Safe for
// concurrent use; a nil *Tracer is valid and records nothing.
type Tracer struct {
	proc string

	mu       sync.Mutex
	rnd      func() uint64
	buf      []SpanData
	start    int // index of the oldest element
	n        int // elements in the ring
	recorded uint64
	dropped  uint64
	onSpan   func(dropped bool)
}

// New builds a Tracer.
func New(o Options) *Tracer {
	capacity := o.Cap
	if capacity <= 0 {
		capacity = DefaultCap
	}
	rnd := o.Rand
	if rnd == nil {
		var seed [32]byte
		_, _ = crand.Read(seed[:])
		rnd = rand.NewChaCha8(seed).Uint64
	}
	return &Tracer{
		proc: o.Proc,
		rnd:  rnd,
		buf:  make([]SpanData, capacity),
	}
}

// SetOnSpan installs the hook called (under the tracer's lock — keep it
// cheap) once per recorded span, with dropped reporting whether recording
// it evicted an older span. It replaces any previous hook, so a component
// re-homing a shared tracer onto the same metrics counters does not double
// count. Nil clears the hook.
func (t *Tracer) SetOnSpan(hook func(dropped bool)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onSpan = hook
	t.mu.Unlock()
}

// CountSpans surfaces the tracer's recording activity on reg:
//
//	crn_trace_spans_total          counter — spans recorded into the ring
//	crn_trace_spans_dropped_total  counter — recordings that evicted an
//	    older span (the ring overflowed; old traces may be incomplete)
//
// Call it once, in the process that owns the tracer (crnserve's serve.New,
// crncheck -coordinator): it installs the SetOnSpan hook, which replaces any
// previous one, so a second call re-points the counts at another registry.
// Nil-safe on both the tracer and reg.
func (t *Tracer) CountSpans(reg *metrics.Registry) {
	if t == nil || reg == nil {
		return
	}
	spans := reg.Counter("crn_trace_spans_total",
		"Spans recorded into the trace ring buffer.")
	dropped := reg.Counter("crn_trace_spans_dropped_total",
		"Span recordings that evicted an older span (ring overflow).")
	t.SetOnSpan(func(evicted bool) {
		spans.Inc()
		if evicted {
			dropped.Inc()
		}
	})
}

// Stats returns how many spans were ever recorded and how many of those
// were evicted by ring overflow.
func (t *Tracer) Stats() (recorded, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded, t.dropped
}

// newSpanID draws a nonzero span id. Caller holds t.mu.
func (t *Tracer) newSpanIDLocked() SpanID {
	var id SpanID
	putUint64(id[:], t.rnd())
	if id == (SpanID{}) {
		id[7] = 1
	}
	return id
}

// putUint64 writes v big-endian into b[:8].
func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// StartSpan opens a span named name starting at now. An invalid parent
// starts a new trace (fresh trace id); a valid one continues it. The span
// is not recorded until End. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartSpan(now time.Time, name string, parent SpanContext, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, name: name, start: now}
	t.mu.Lock()
	if parent.Valid() {
		sp.sc.TraceID = parent.TraceID
		sp.parent = parent.SpanID
	} else {
		putUint64(sp.sc.TraceID[:8], t.rnd())
		putUint64(sp.sc.TraceID[8:], t.rnd())
		if sp.sc.TraceID == (TraceID{}) {
			sp.sc.TraceID[15] = 1
		}
	}
	sp.sc.SpanID = t.newSpanIDLocked()
	t.mu.Unlock()
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	return sp
}

// Record inserts an externally produced finished span (e.g. one shipped
// from a dist worker) into the ring. Nil-safe.
func (t *Tracer) Record(d SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := false
	if t.n == len(t.buf) {
		t.buf[t.start] = d
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
		dropped = true
	} else {
		t.buf[(t.start+t.n)%len(t.buf)] = d
		t.n++
	}
	t.recorded++
	if t.onSpan != nil {
		t.onSpan(dropped)
	}
}

// Snapshot copies the ring's spans, oldest first.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// TraceSpans returns the ring's spans belonging to the hex trace id,
// oldest first — how a dist worker collects the spans it ships with a
// result report.
func (t *Tracer) TraceSpans(traceID string) []SpanData {
	var out []SpanData
	for _, d := range t.Snapshot() {
		if d.TraceID == traceID {
			out = append(out, d)
		}
	}
	return out
}

// Span is one in-flight operation. Methods are safe for concurrent use
// and no-ops on a nil receiver (tracing disabled).
type Span struct {
	t      *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	ended bool
	attrs map[string]string
}

// Context returns the span's propagation context (zero when sp is nil).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.sc
}

// SetAttr sets one attribute; calls after End are ignored.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.ended {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]string)
	}
	sp.attrs[key] = value
}

// End finishes the span at now, attaches any final attrs, and records it
// in the tracer's ring. Only the first End takes effect.
func (sp *Span) End(now time.Time, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	for _, a := range attrs {
		if sp.attrs == nil {
			sp.attrs = make(map[string]string)
		}
		sp.attrs[a.Key] = a.Value
	}
	sp.ended = true
	d := SpanData{
		TraceID: sp.sc.TraceID.String(),
		SpanID:  sp.sc.SpanID.String(),
		Name:    sp.name,
		Proc:    sp.t.proc,
		Start:   sp.start.UnixNano(),
		End:     now.UnixNano(),
		Attrs:   sp.attrs,
	}
	if sp.parent != (SpanID{}) {
		d.Parent = sp.parent.String()
	}
	sp.mu.Unlock()
	sp.t.Record(d)
}
