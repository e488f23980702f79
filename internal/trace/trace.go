// Package trace is the in-process distributed-tracing spine: a span
// recorder with W3C-style trace-context propagation, a bounded ring buffer
// of finished spans, and deterministic export (sorted JSON, Chrome
// trace-event JSON loadable in Perfetto).
//
// The ring holds finished spans by value, with binary ids. They are
// rendered as SpanData, with hex ids and an attribute map, only where they
// leave the process: Snapshot, TraceSpans, GET /debug/traces, the Chrome
// export, and the spans a dist worker ships with a result.
//
// # Caller-owned clocks
//
// Like internal/metrics, this package never reads a clock: every instant —
// Seam.Start's start, Event.End's end — is passed in by the caller. That
// keeps the crnlint determinism analyzer meaningful for the engine packages
// (this package is itself in the engine set): an engine cannot launder
// time.Now through a span without the reference appearing at its own call
// site, where the analyzer flags it. Engines never trace themselves; the serving
// layers (httpx, serve, dist, the CLIs) own both the spans and the clocks,
// and engine work shows up as spans via the progress adapter
// (Seam.Progress), whose clock is injected by those layers too.
//
// # One seam per layer
//
// A layer instruments an event with one call: Seam.Start opens it, and its
// End records the span, observes crn_span_duration_seconds{name,outcome}
// and closes it, while its Logf stamps the event's log lines with the trace
// and span ids. Event names come from the fixed SpanNames list. An Event is
// the only span type: there is no separate in-flight span object.
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
// A nil *Tracer is "tracing disabled": a Seam built on it records no
// spans, though its events still carry their parent's context, and every
// *Tracer method is a no-op or returns nothing on nil. A nil *Seam and the
// zero Event record nothing either, so call sites never guard. This is the
// same contract the metrics layer uses for nil registries.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"

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
	if !lowerHex(s[53:]) {
		return sc, fmt.Errorf("trace: traceparent %q: flags must be lowercase hex", s)
	}
	if !decodeID(sc.TraceID[:], s[3:35]) || !decodeID(sc.SpanID[:], s[36:52]) {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: ids must be lowercase hex and not all zero", s)
	}
	return sc, nil
}

// decodeID decodes the hex id s into id, reporting whether s follows the
// W3C rule for ids: exactly 2·len(id) lowercase hex digits, not all zero.
func decodeID(id []byte, s string) bool {
	if len(s) != 2*len(id) || !lowerHex(s) {
		return false
	}
	// Cannot fail: s is lowercase hex of even length.
	_, _ = hex.Decode(id, []byte(s))
	for _, b := range id {
		if b != 0 {
			return true
		}
	}
	return false
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

// SpanData is one finished span in the form it leaves the process in:
// GET /debug/traces, the Chrome export, and the spans dist workers ship
// with their result reports. Attrs serializes with sorted keys
// (encoding/json's map rule), so identical span sets encode to identical
// bytes.
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

// span is one finished span as the ring holds it: binary ids, Unix-nano
// instants, and the attributes in the order they were set.
type span struct {
	sc         SpanContext
	parent     SpanID // zero for a trace's root span
	name, proc string
	start, end int64
	attrs      []Attr
}

// data renders s as SpanData: hex ids, no parent id for a root span, and
// the attributes as a map in which a later key overrides an earlier one.
func (s *span) data() SpanData {
	d := SpanData{
		TraceID: s.sc.TraceID.String(),
		SpanID:  s.sc.SpanID.String(),
		Name:    s.name,
		Proc:    s.proc,
		Start:   s.start,
		End:     s.end,
	}
	if s.parent != (SpanID{}) {
		d.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	return d
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
	buf      []span
	start    int // index of the oldest element
	n        int // elements in the ring
	recorded uint64
	dropped  uint64
	// spans and evicted count recorded and dropped on the registry
	// CountSpans was given; nil until it is called.
	spans, evicted *metrics.Counter
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
		buf:  make([]span, capacity),
	}
}

// CountSpans surfaces the tracer's recording activity on reg:
//
//	crn_trace_spans_total          counter — spans recorded into the ring
//	crn_trace_spans_dropped_total  counter — recordings that evicted an
//	    older span (the ring overflowed; old traces may be incomplete)
//
// Call it once, in the process that owns the tracer (crnserve's serve.New,
// crncheck -coordinator). A second call re-points the counts at another
// registry instead of counting twice. Nil-safe on both the tracer and reg.
func (t *Tracer) CountSpans(reg *metrics.Registry) {
	if t == nil || reg == nil {
		return
	}
	spans := reg.Counter("crn_trace_spans_total",
		"Spans recorded into the trace ring buffer.")
	evicted := reg.Counter("crn_trace_spans_dropped_total",
		"Span recordings that evicted an older span (ring overflow).")
	t.mu.Lock()
	t.spans, t.evicted = spans, evicted
	t.mu.Unlock()
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

// putUint64 writes v big-endian into b[:8].
func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// newContext draws the context of a span started under parent. A valid
// parent is continued: same trace, and parent's span id as the parent id.
// An invalid one starts a new trace, and the span has no parent id.
func (t *Tracer) newContext(parent SpanContext) (sc SpanContext, parentID SpanID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent.Valid() {
		sc.TraceID, parentID = parent.TraceID, parent.SpanID
	} else {
		putUint64(sc.TraceID[:8], t.rnd())
		putUint64(sc.TraceID[8:], t.rnd())
		if sc.TraceID == (TraceID{}) {
			sc.TraceID[15] = 1
		}
	}
	putUint64(sc.SpanID[:], t.rnd())
	if sc.SpanID == (SpanID{}) {
		sc.SpanID[7] = 1
	}
	return sc, parentID
}

// record inserts one finished span into the ring, evicting the oldest when
// the ring is full.
func (t *Tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := t.n == len(t.buf)
	if evicted {
		t.buf[t.start] = s
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
	} else {
		t.buf[(t.start+t.n)%len(t.buf)] = s
		t.n++
	}
	t.recorded++
	if t.spans != nil {
		t.spans.Inc()
		if evicted {
			t.evicted.Inc()
		}
	}
}

// Record inserts a finished span another process produced (one a dist
// worker shipped with its result) into the ring. The span is input from
// outside the process: its ids are decoded by ParseTraceparent's rules,
// and a span whose trace, span or (non-empty) parent id breaks them is
// dropped. Nil-safe.
func (t *Tracer) Record(d SpanData) {
	if t == nil {
		return
	}
	s := span{name: d.Name, proc: d.Proc, start: d.Start, end: d.End}
	if !decodeID(s.sc.TraceID[:], d.TraceID) || !decodeID(s.sc.SpanID[:], d.SpanID) ||
		d.Parent != "" && !decodeID(s.parent[:], d.Parent) {
		return
	}
	for _, k := range sortedKeys(d.Attrs) {
		s.attrs = append(s.attrs, Attr{Key: k, Value: d.Attrs[k]})
	}
	t.record(s)
}

// Snapshot renders the ring's spans, oldest first.
func (t *Tracer) Snapshot() []SpanData { return t.render(nil) }

// TraceSpans renders the ring's spans belonging to the hex trace id,
// oldest first — how a dist worker collects the spans it ships with a
// result report, and how GET /debug/traces?trace= filters. An id that is
// not a valid trace id matches nothing.
func (t *Tracer) TraceSpans(traceID string) []SpanData {
	var id TraceID
	if !decodeID(id[:], traceID) {
		return nil
	}
	return t.render(&id)
}

// render renders the ring's spans, oldest first: all of them, or only
// trace's when trace is non-nil. The spans are copied under the lock and
// rendered outside it, so recording never waits on an export.
func (t *Tracer) render(trace *TraceID) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	kept := make([]span, 0, t.n)
	for i := 0; i < t.n; i++ {
		if s := &t.buf[(t.start+i)%len(t.buf)]; trace == nil || s.sc.TraceID == *trace {
			kept = append(kept, *s)
		}
	}
	t.mu.Unlock()
	var out []SpanData
	for i := range kept {
		out = append(out, kept[i].data())
	}
	return out
}
