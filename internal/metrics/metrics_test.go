package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops done.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(5)
	g.Dec()

	got := render(t, r)
	want := "# HELP test_depth Queue depth.\n" +
		"# TYPE test_depth gauge\n" +
		"test_depth 4\n" +
		"# HELP test_ops_total Ops done.\n" +
		"# TYPE test_ops_total counter\n" +
		"test_ops_total 3\n"
	if got != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestVecSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_reqs_total", "Requests.", "endpoint", "code")
	// Touch children in non-sorted order; rendering must sort.
	v.With("/v1/check", "500").Inc()
	v.With("/healthz", "200").Add(2)
	v.With("/v1/check", "200").Add(7)

	got := render(t, r)
	want := "# HELP test_reqs_total Requests.\n" +
		"# TYPE test_reqs_total counter\n" +
		`test_reqs_total{endpoint="/healthz",code="200"} 2` + "\n" +
		`test_reqs_total{endpoint="/v1/check",code="200"} 7` + "\n" +
		`test_reqs_total{endpoint="/v1/check",code="500"} 1` + "\n"
	if got != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := render(t, r); again != got {
		t.Fatalf("rendering is not deterministic")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 1, 10}, "op").With("get")
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	got := render(t, r)
	want := "# HELP test_latency_seconds Latency.\n" +
		"# TYPE test_latency_seconds histogram\n" +
		`test_latency_seconds_bucket{op="get",le="0.1"} 2` + "\n" +
		`test_latency_seconds_bucket{op="get",le="1"} 3` + "\n" +
		`test_latency_seconds_bucket{op="get",le="10"} 4` + "\n" +
		`test_latency_seconds_bucket{op="get",le="+Inf"} 5` + "\n" +
		`test_latency_seconds_sum{op="get"} 102.65` + "\n" +
		`test_latency_seconds_count{op="get"} 5` + "\n"
	if got != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_dur_seconds", "Durations.", []float64{1}, "op")
	v.With("b").Observe(0.5)
	v.With("a").Observe(2)

	got := render(t, r)
	want := "# HELP test_dur_seconds Durations.\n" +
		"# TYPE test_dur_seconds histogram\n" +
		`test_dur_seconds_bucket{op="a",le="1"} 0` + "\n" +
		`test_dur_seconds_bucket{op="a",le="+Inf"} 1` + "\n" +
		`test_dur_seconds_sum{op="a"} 2` + "\n" +
		`test_dur_seconds_count{op="a"} 1` + "\n" +
		`test_dur_seconds_bucket{op="b",le="1"} 1` + "\n" +
		`test_dur_seconds_bucket{op="b",le="+Inf"} 1` + "\n" +
		`test_dur_seconds_sum{op="b"} 0.5` + "\n" +
		`test_dur_seconds_count{op="b"} 1` + "\n"
	if got != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "x")
	b := r.Counter("test_total", "x")
	if a != b {
		t.Fatalf("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("type-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("test_total", "x")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_esc_total", "Esc.", "v").With("a\"b\\c\nd").Inc()
	got := render(t, r)
	if !strings.Contains(got, `test_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", got)
	}
}

func TestEmptyFamilyEmitsHeader(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_unused_total", "Never sampled.", "k")
	got := render(t, r)
	want := "# HELP test_unused_total Never sampled.\n# TYPE test_unused_total counter\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_since_seconds", "Spans.", []float64{1}, "op").With("span")
	start := time.Unix(0, 0)
	h.ObserveSince(start, start.Add(2*time.Second))
	if got := h.Sum(); got != 2 {
		t.Fatalf("Sum = %v, want 2", got)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestConcurrentHotPath exercises the atomic paths under the race
// detector (CI runs this package with -race).
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hot_total", "x")
	g := r.Gauge("test_hot_depth", "x")
	h := r.HistogramVec("test_hot_seconds", "x", DefBuckets, "op")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := []string{"a", "b"}[i%2]
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.With(op).Observe(float64(j) / 1000)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = render(t, r)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %d, want 8000", g.Value())
	}
	if n := h.With("a").Count() + h.With("b").Count(); n != 8000 {
		t.Fatalf("histogram count = %d, want 8000", n)
	}
}

// TestVecWithHitAllocs pins that looking up an existing child allocates
// nothing: the serve and trace seams call With on every event.
func TestVecWithHitAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "a", "b")
	gv := r.GaugeVec("g", "g", "a")
	hv := r.HistogramVec("h_seconds", "h", DefBuckets, "span", "outcome")
	for name, with := range map[string]func(){
		"CounterVec":   func() { cv.With("x", `q"uote`).Inc() },
		"GaugeVec":     func() { gv.With("y").Inc() },
		"HistogramVec": func() { hv.With("serve.cache.lookup", "hit").Observe(0.001) },
	} {
		with() // the miss creates the child
		if got := testing.AllocsPerRun(100, with); got != 0 {
			t.Errorf("%s.With hit: %v allocations, want 0", name, got)
		}
	}
}
