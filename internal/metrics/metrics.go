// Package metrics is a dependency-free metrics registry: counters,
// gauges, and fixed-bucket histograms with atomic hot paths and label
// support, rendered in the Prometheus text exposition format
// (version 0.0.4).
//
// Rendering is deterministic: families are emitted in sorted name
// order, children in sorted label-value order, and floats with the
// shortest round-trip representation — so two scrapes of identical
// state produce identical bytes, matching the repo-wide byte-identity
// discipline.
//
// The package never reads the wall clock. Histogram.ObserveSince takes
// both endpoints from the caller, so engine packages — where crnlint's
// determinism analyzer forbids time.Now — cannot launder a wall-clock
// read through a metrics helper: the time.Now reference itself would
// appear at the call site and be flagged. Wall-clock reads belong in
// cmd/, serve, and dist, which already own them (through trace.Seam).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram upper bounds, in seconds —
// the conventional Prometheus latency buckets.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry. Registration is idempotent: asking
// for a family that already exists with the same type and label names
// returns the existing one, so independently initialized components
// (serve cache, trace seams, progress adapters) can share one registry
// without coordination. Re-registering a name with a different type
// or label set panics — that is a programming error, caught at init.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, excluding +Inf

	mu       sync.Mutex
	children map[string]child // key: joined label values ("" when unlabeled)
}

type child interface {
	labelValues() []string
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the child for the given label values, creating it on
// first use. Its key joins the quoted values, so values holding any bytes
// never collide. The key is built in a stack buffer, and indexing the map
// with string(key) does not copy it, so a hit allocates nothing.
func (f *family) child(values []string) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for _, v := range values {
		key = strconv.AppendQuote(key, v)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c := f.newChild(append([]string(nil), values...))
	f.children[string(key)] = c
	return c
}

// newChild returns a new child of the family's type with the given label
// values.
func (f *family) newChild(labels []string) child {
	switch f.typ {
	case typeCounter:
		return &Counter{labels: labels}
	case typeGauge:
		return &Gauge{labels: labels}
	}
	return newHistogram(labels, f.buckets)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	labels []string
	v      atomic.Uint64
}

func (c *Counter) labelValues() []string { return c.labels }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	labels []string
	v      atomic.Int64
}

func (g *Gauge) labelValues() []string { return g.labels }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets. All
// methods are safe for concurrent use; Observe is lock-free.
type Histogram struct {
	labels []string
	upper  []float64       // sorted upper bounds, excluding +Inf
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func (h *Histogram) labelValues() []string { return h.labels }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the duration from start to now, in seconds.
// Both endpoints come from the caller's clock; the metrics package
// itself never reads the wall clock.
func (h *Histogram) ObserveSince(start, now time.Time) {
	h.Observe(now.Sub(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Counter returns the unlabeled counter with the given name,
// registering the family on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).child(nil).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).child(nil).(*Gauge)
}

func newHistogram(labels []string, upper []float64) *Histogram {
	h := &Histogram{labels: labels, upper: upper}
	h.counts = make([]atomic.Uint64, len(upper)+1)
	return h
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1] // +Inf is implicit
	}
	return append([]float64(nil), buckets...)
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec returns the counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: CounterVec %q needs labels (use Counter)", name))
	}
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values).(*Counter)
}

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: GaugeVec %q needs labels (use Gauge)", name))
	}
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values).(*Gauge)
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the histogram family with the given buckets
// and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: HistogramVec %q needs labels", name))
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, checkBuckets(name, buckets))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values).(*Histogram)
}

// WriteText renders every family in the Prometheus text exposition
// format, version 0.0.4. Output is deterministic: families sorted by
// name, children sorted by label values. Families with no children
// yet still emit their HELP and TYPE header lines, so a scrape
// advertises every registered family even before the first sample.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	f.mu.Unlock()

	for _, c := range kids {
		switch m := c.(type) {
		case *Counter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, m.labels, "", 0)
			fmt.Fprintf(b, " %d\n", m.Value())
		case *Gauge:
			b.WriteString(f.name)
			writeLabels(b, f.labels, m.labels, "", 0)
			fmt.Fprintf(b, " %d\n", m.Value())
		case *Histogram:
			var cum uint64
			for i := range m.counts {
				cum += m.counts[i].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				le := "+Inf"
				if i < len(m.upper) {
					le = formatFloat(m.upper[i])
				}
				writeLabels(b, f.labels, m.labels, le, 1)
				fmt.Fprintf(b, " %d\n", cum)
			}
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, f.labels, m.labels, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(m.Sum()))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, f.labels, m.labels, "", 0)
			fmt.Fprintf(b, " %d\n", m.Count())
		}
	}
}

// writeLabels renders {k="v",...}; mode 1 appends le=<le> for
// histogram bucket lines. Nothing is written when there are no labels
// to emit.
func writeLabels(b *strings.Builder, names, values []string, le string, mode int) {
	if len(names) == 0 && mode == 0 {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if mode == 1 {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler returns an http.Handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
