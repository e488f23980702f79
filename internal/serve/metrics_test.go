package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/httpx"
	"crncompose/internal/metrics"
	"crncompose/internal/parse"
	"crncompose/internal/trace"
)

// expositionLine is the text-format shape every sample line must have:
// name, optional {labels}, one float/int value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9][0-9eE.+-]*|[+-]Inf|NaN)$`)

// scrape fetches /metrics, validates every sample line against the text
// exposition grammar, and returns series → value.
func scrape(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	series := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		series[line[:sp]] = line[sp+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// atLeast asserts the named series exists with value >= min.
func atLeast(t *testing.T, series map[string]string, name string, min float64) {
	t.Helper()
	v, ok := series[name]
	if !ok {
		t.Fatalf("scrape missing series %q", name)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", name, v, err)
	}
	if f < min {
		t.Fatalf("series %q = %v, want >= %v", name, f, min)
	}
}

// TestMetricsEndpoint drives one cache miss and one hit through /v1/check
// and asserts the scrape: valid exposition, cache counters, the
// per-endpoint latency histogram, engine progress, the seam's span
// durations, and the advertised jobs families. The /metrics route itself
// must not appear as an endpoint label — a scrape should not grow the
// families it reads.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(1)
	req := CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}
	if status, src, body := post(t, ts.URL+"/v1/check", req); status != http.StatusOK || src != cacheMiss {
		t.Fatalf("first check: %d %q %s", status, src, body)
	}
	if status, src, _ := post(t, ts.URL+"/v1/check", req); status != http.StatusOK || src != cacheHit {
		t.Fatalf("second check: %d %q", status, src)
	}

	series := scrape(t, ts.URL)
	atLeast(t, series, "crn_cache_hits_total", 1)
	atLeast(t, series, "crn_cache_misses_total", 1)
	atLeast(t, series, "crn_cache_entries", 1)
	atLeast(t, series, `crn_http_request_duration_seconds_count{endpoint="/v1/check"}`, 2)
	atLeast(t, series, `crn_http_requests_total{endpoint="/v1/check",code="200"}`, 2)
	atLeast(t, series, `crn_progress_events_total{stage="reach.grid"}`, 1)
	atLeast(t, series, `crn_progress_units_total{stage="reach.grid"}`, 1)
	atLeast(t, series, `crn_span_duration_seconds_count{name="serve.request",outcome="ok"}`, 2)
	atLeast(t, series, `crn_span_duration_seconds_count{name="serve.cache.lookup",outcome="hit"}`, 1)
	atLeast(t, series, `crn_span_duration_seconds_count{name="serve.compute",outcome="ok"}`, 1)
	atLeast(t, series, "crn_jobs_submitted_total", 0)
	atLeast(t, series, `crn_jobs{state="queued"}`, 0)
	for name := range series {
		if strings.Contains(name, `endpoint="/metrics"`) {
			t.Fatalf("the /metrics route instrumented itself: %s", name)
		}
	}
}

// TestMetricsSharedRegistry: a caller-supplied registry receives the
// server's families (the embedding pattern: one registry, one scrape for
// the whole process), the seam's crn_span_duration_seconds included.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	hi := int64(1)
	post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE crn_cache_hits_total counter",
		"# TYPE crn_http_request_duration_seconds histogram",
		"# TYPE crn_jobs gauge",
		"# TYPE crn_span_duration_seconds histogram",
		"# TYPE crn_progress_events_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shared registry missing %q", want)
		}
	}
}

// TestStatsJSONKeys pins the /v1/stats wire format: every pre-metrics
// key must survive the re-homing of the cache counters onto the shared
// registry, byte-for-byte in name. Monitoring that parses these keys
// must not break when the backing store changes.
func TestStatsJSONKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(1)
	post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})

	status, body := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache", "jobs"} {
		if _, ok := top[key]; !ok {
			t.Errorf("stats missing top-level key %q: %s", key, body)
		}
	}
	var cache map[string]json.Number
	if err := json.Unmarshal(top["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"entries", "max", "hits", "misses", "dedups", "evictions"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("stats.cache missing key %q: %s", key, top["cache"])
		}
	}
	if n, _ := cache["hits"].Int64(); n != 0 {
		t.Errorf("hits after one miss = %d, want 0", n)
	}
	if n, _ := cache["misses"].Int64(); n != 1 {
		t.Errorf("misses after one check = %d, want 1", n)
	}
}

// TestMetricsSpanCountsLocalJobs: the span counters are hooked once, by the
// server that owns the tracer, and no job may re-point the hook, so after
// two local jobs /metrics' crn_trace_spans_total is what the tracer
// recorded.
func TestMetricsSpanCountsLocalJobs(t *testing.T) {
	tr := trace.New(trace.Options{Proc: "serve-test"})
	_, ts := newTestServer(t, Config{Tracer: tr})
	for _, hi := range []int64{3, 4} {
		if final := awaitJob(t, ts.URL, submitJob(t, ts.URL, hi).ID); final.State != jobDone {
			t.Fatalf("job hi=%d: %+v", hi, final)
		}
	}
	// A request span may still be recording after its response arrived;
	// compare against a tracer count that held steady across the scrape.
	for attempt := 0; ; attempt++ {
		before, _ := tr.Stats()
		series := scrape(t, ts.URL)
		after, _ := tr.Stats()
		if before != after && attempt < 50 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if got, want := series["crn_trace_spans_total"], strconv.FormatUint(after, 10); got != want {
			t.Fatalf("crn_trace_spans_total = %s, tracer recorded %s", got, want)
		}
		return
	}
}

// TestSeamNameSet pins crn_span_duration_seconds' name label to the one
// documented list, trace.SpanNames, the way internal/progress pins stage
// names: after a sync check, a simulation, a local job, a dist job that
// degrades to checking its rectangles in-process, a coordinator with one
// worker and an httpx retry, all on one registry, every name observed is on
// the list, so label cardinality stays bounded.
func TestSeamNameSet(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg, Tracer: trace.New(trace.Options{Proc: "serve-test"})})
	hi := int64(1)
	if status, _, body := post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}); status != http.StatusOK {
		t.Fatalf("sync check: %d %s", status, body)
	}
	if status, _, body := post(t, ts.URL+"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{2, 1}}); status != http.StatusOK {
		t.Fatalf("simulate: %d %s", status, body)
	}
	if final := awaitJob(t, ts.URL, submitJob(t, ts.URL, 3).ID); final.State != jobDone {
		t.Fatalf("local job: %+v", final)
	}
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	_, dts := newTestServer(t, Config{Metrics: reg, DistCoordinator: occupied.Addr().String()})
	if final := awaitJob(t, dts.URL, submitJob(t, dts.URL, 3).ID); final.State != jobDone || !final.Degraded {
		t.Fatalf("degraded dist job: %+v", final)
	}

	minCRN, err := parse.Parse(minCRNText)
	if err != nil {
		t.Fatal(err)
	}
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		CRN: minCRN, Func: "min", Lo: []int64{0, 0}, Hi: []int64{2, 2},
		Shards: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := &dist.Worker{Coordinator: co.Addr().String(), Name: "w", Workers: 1, Resolve: core.Resolve}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if _, err := co.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "{}")
	}))
	defer busy.Close()
	c := &httpx.Client{Seam: trace.NewSeam(nil, reg, nil), Rand: func(int64) int64 { return 0 }}
	if err := c.GetJSON(ctx, busy.URL, nil); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, name := range trace.SpanNames {
		known[name] = true
	}
	seen := make(map[string]bool)
	count := regexp.MustCompile(`^crn_span_duration_seconds_count\{name="([^"]*)",outcome="[^"]*"\} [1-9]`)
	for _, line := range strings.Split(b.String(), "\n") {
		if m := count.FindStringSubmatch(line); m != nil {
			if !known[m[1]] {
				t.Errorf("event name %q is not in trace.SpanNames", m[1])
			}
			seen[m[1]] = true
		}
	}
	for _, want := range []string{
		"serve.request", "serve.resolve", "serve.cache.lookup", "serve.compute", "serve.job", "serve.rect", "serve.degrade",
		"dist.job", "dist.lease", "dist.merge", "httpx.attempt", "reach.grid",
	} {
		if !seen[want] {
			t.Errorf("no %s observation in:\n%s", want, b.String())
		}
	}
}
