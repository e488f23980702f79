package serve

import (
	"bytes"
	"errors"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

// TestSingleflightDedup pins the satellite contract: N concurrent identical
// /v1/check requests produce exactly one engine invocation and byte-identical
// bodies. The test hook blocks the one real computation until every other
// request is provably parked on the in-flight entry, so the schedule that
// would defeat a cache without singleflight is forced, not hoped for.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	var runs atomic.Int32
	release := make(chan struct{})
	s.testComputed = func(op string) {
		runs.Add(1)
		<-release
	}
	req := CheckRequest{CRN: minCRNText, Func: "min"}
	j, err := resolveCheck(req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, source, body := post(t, ts.URL+"/v1/check", req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
			}
			bodies[i], sources[i] = body, source
		}()
	}
	// Wait until the other n-1 requests are parked on the flight, then let
	// the single computation finish.
	for deadline := time.Now().Add(10 * time.Second); s.cache.waitersOn(j.key) < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters parked on the flight", s.cache.waitersOn(j.key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d engine invocations for %d identical concurrent requests, want 1", got, n)
	}
	var miss, dedup int
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		switch sources[i] {
		case cacheMiss:
			miss++
		case cacheDedup:
			dedup++
		default:
			t.Fatalf("request %d X-Cache = %q", i, sources[i])
		}
	}
	if miss != 1 || dedup != n-1 {
		t.Fatalf("sources: %d miss, %d dedup; want 1 and %d", miss, dedup, n-1)
	}
	if st := s.cache.stats(); st.Entries != 1 || st.Dedups != n-1 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestCacheEvictionRespectsMax pins the -cache-max bound: with capacity 2,
// a third distinct request evicts the least recently used entry, and
// re-requesting the evicted one recomputes.
func TestCacheEvictionRespectsMax(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheMax: 2})
	var runs atomic.Int32
	s.testComputed = func(string) { runs.Add(1) }
	his := []int64{0, 1, 2}
	check := func(i int) string {
		status, source, body := post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &his[i]})
		if status != http.StatusOK {
			t.Fatalf("check hi=%d: %d %s", his[i], status, body)
		}
		return source
	}
	for i := 0; i < 3; i++ {
		if source := check(i); source != cacheMiss {
			t.Fatalf("first request %d: X-Cache %q", i, source)
		}
	}
	st := s.cache.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts at max 2: %+v", st)
	}
	// hi=0 was evicted (LRU); hi=1 and hi=2 are resident.
	if source := check(1); source != cacheHit {
		t.Fatalf("hi=1 evicted early (X-Cache %q)", source)
	}
	if source := check(0); source != cacheMiss {
		t.Fatalf("evicted entry served from cache (X-Cache %q)", source)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("%d engine runs, want 4 (3 cold + 1 recompute after eviction)", got)
	}
}

// TestResultCacheUnit exercises the cache directly: errors are never stored
// and are delivered to every concurrent waiter; put/get behave; LRU touch
// order decides eviction.
func TestResultCacheUnit(t *testing.T) {
	rc := newResultCache(2, metrics.NewRegistry())
	boom := errors.New("boom")
	if _, _, err := rc.do("k", func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, ok := rc.get("k"); ok {
		t.Fatal("error was cached")
	}
	val := []byte("v")
	if got, source, err := rc.do("k", func() ([]byte, error) { return val, nil }); err != nil || source != cacheMiss || !bytes.Equal(got, val) {
		t.Fatalf("%+v %q %v", got, source, err)
	}
	if _, source, _ := rc.do("k", func() ([]byte, error) { t.Fatal("recomputed"); return nil, nil }); source != cacheHit {
		t.Fatalf("source %q", source)
	}
	// Touch order on a fresh cache: a, b, touch a, insert c → b evicted.
	rc = newResultCache(2, metrics.NewRegistry())
	rc.put("a", val)
	rc.put("b", val)
	rc.get("a")
	rc.put("c", val)
	if _, ok := rc.get("b"); ok {
		t.Fatal("LRU kept b over a")
	}
	if _, ok := rc.get("a"); !ok {
		t.Fatal("recently used a evicted")
	}
	// Disabled storage still deduplicates but never stores.
	rc0 := newResultCache(0, metrics.NewRegistry())
	rc0.put("x", val)
	if _, ok := rc0.get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	var n int
	for i := 0; i < 2; i++ {
		if _, _, err := rc0.do("x", func() ([]byte, error) { n++; return val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n != 2 {
		t.Fatalf("disabled cache computed %d times, want 2 (no storage)", n)
	}
}

// TestRequestKeyStable pins that the canonical key is insensitive to
// formatting and default-filling but sensitive to every input the verdict
// depends on.
func TestRequestKeyStable(t *testing.T) {
	hi := int64(3)
	base, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min"})
	if err != nil {
		t.Fatal(err)
	}
	same, err := resolveCheck(CheckRequest{CRN: "#input X1 X2\n#output Y\nX1+X2->Y\n", Func: "min", Hi: &hi, MaxConfigs: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if base.key != same.key {
		t.Fatal("equivalent requests got different keys")
	}
	for name, req := range map[string]CheckRequest{
		"different_budget": {CRN: minCRNText, Func: "min", MaxConfigs: 1 << 10},
		"different_grid":   {CRN: minCRNText, Func: "min", Lo: 1},
		"different_func":   {CRN: minCRNText, Func: "max"},
		"different_crn":    {CRN: sumCRNText, Func: "min"},
	} {
		other, err := resolveCheck(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if other.key == base.key {
			t.Fatalf("%s collided with the base key", name)
		}
	}
}

// TestRequestKeyGolden pins one request's content address to the hex the
// fmt-based renderer produced: the canonical CRN text, the canonicalCheck
// encoding and the hash together. Cache entries, job ids and checkpoints
// are all named by it, so a renderer or schema change that moves the key
// must bump canonicalCheck.V and this value together.
func TestRequestKeyGolden(t *testing.T) {
	hi := int64(4)
	j, err := resolveCheck(CheckRequest{
		CRN:        "# doubling, spelled loosely\n#input X\n#output Y\n#leader L\nL+X → 2Y + L\n2 X -> 0\nL -> L + Y\n",
		Func:       "double",
		Lo:         1,
		Hi:         &hi,
		MaxConfigs: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "#input X\n#output Y\n#leader L\nL + X -> 2Y + L\n2X -> 0\nL -> L + Y\n"; j.cc.CRN != want {
		t.Errorf("canonical CRN = %q, want %q", j.cc.CRN, want)
	}
	if want := "2476c5d0ced82104815bf5fbd6f2c6fd4e6bc741f00c331e17ec490015b23c3f"; j.key != want {
		t.Errorf("requestKey = %s, want %s", j.key, want)
	}
}

// TestCheckDefaultHiKey pins that a /v1/check request without hi resolves
// to the same canonical key as one that spells out core.DefaultHi, the
// default crncheck -hi reads too.
func TestCheckDefaultHiKey(t *testing.T) {
	hi := int64(core.DefaultHi)
	implicit, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min"})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := resolveCheck(CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if implicit.key != explicit.key {
		t.Fatalf("request without hi keyed %s, with hi %d keyed %s", implicit.key, hi, explicit.key)
	}
}

// waitersOn reports how many requests are parked on key's in-flight
// computation (observability for the singleflight tests).
func (rc *resultCache) waitersOn(key string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if fl, ok := rc.inflight[key]; ok {
		return fl.waiters
	}
	return 0
}

// TestAnswerPath pins the one answer path of the cached endpoints: a first
// request computes (X-Cache miss, one testComputed call, a serve.compute
// event), and its repeat replays the byte-identical body (X-Cache hit, no
// computation). A /v1/check repeat is answered by handleCheck's lookup
// probe, so its hit is a serve.cache.lookup event with outcome hit. A
// failing computation is answered 422 and never stored, so its repeat
// computes again. The check row is refuted past its grid's first chunk of
// 64 inputs (one worker), so its reach.grid stage event exists and ends
// "failure".
func TestAnswerPath(t *testing.T) {
	// min until x1 reaches 7, where 7X1 -> 7Y overshoots: refuted at (7,0),
	// the 71st input of [0,9]^2.
	const lateRefuted = minCRNText + "7X1 -> 7Y\n"
	hi := int64(9)
	for _, tc := range []struct {
		op, path string
		req      any
		events   []string // cache-layer events, "name/outcome", in order
		fail     any      // a request whose computation fails (nil: none)
	}{
		{"classify", "/v1/classify", ClassifyRequest{Func: "min"},
			[]string{"serve.compute/ok", "serve.cache.hit/ok"}, nil},
		{"synthesize", "/v1/synthesize", SynthesizeRequest{Func: "min"},
			[]string{"serve.compute/ok", "serve.cache.hit/ok"}, SynthesizeRequest{Func: "max"}},
		{"simulate", "/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{5, 3}, Method: "fair", Trials: 2},
			[]string{"serve.compute/ok", "serve.cache.hit/ok"}, nil},
		{"check", "/v1/check", CheckRequest{CRN: lateRefuted, Func: "min", Hi: &hi},
			[]string{"serve.cache.lookup/miss", "serve.compute/ok", "serve.cache.lookup/hit"}, nil},
	} {
		t.Run(tc.op, func(t *testing.T) {
			tr := trace.New(trace.Options{Proc: "serve-test"})
			s, ts := newTestServer(t, Config{Tracer: tr, Workers: 1})
			var runs atomic.Int32
			s.testComputed = func(op string) {
				if op != tc.op {
					t.Errorf("computed %q, want %q", op, tc.op)
				}
				runs.Add(1)
			}
			status, source, first := post(t, ts.URL+tc.path, tc.req)
			if status != http.StatusOK || source != cacheMiss {
				t.Fatalf("first request: %d %q %s", status, source, first)
			}
			status, source, second := post(t, ts.URL+tc.path, tc.req)
			if status != http.StatusOK || source != cacheHit || !bytes.Equal(first, second) {
				t.Fatalf("repeat: %d %q, bodies equal %v", status, source, bytes.Equal(first, second))
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("%d computations, want 1", n)
			}
			var events []string
			grids := 0
			for _, d := range tr.Snapshot() {
				switch d.Name {
				case "serve.cache.lookup", "serve.compute", "serve.cache.hit", "serve.singleflight.park":
					events = append(events, d.Name+"/"+d.Attrs["outcome"])
				case "reach.grid":
					grids++
					if d.Attrs["outcome"] != "failure" {
						t.Errorf("reach.grid outcome %q, want failure", d.Attrs["outcome"])
					}
				}
			}
			if !slices.Equal(events, tc.events) {
				t.Fatalf("events %v, want %v", events, tc.events)
			}
			wantGrids := 0
			if tc.op == "check" {
				wantGrids = 1
			}
			if grids != wantGrids {
				t.Fatalf("%d reach.grid events, want %d", grids, wantGrids)
			}
			if tc.fail == nil {
				return
			}
			for i := 1; i <= 2; i++ {
				status, source, body := post(t, ts.URL+tc.path, tc.fail)
				if status != http.StatusUnprocessableEntity || source != "" {
					t.Fatalf("failing request %d: %d %q %s", i, status, source, body)
				}
				if n := runs.Load(); n != 1+int32(i) {
					t.Fatalf("failing request %d: %d computations, want %d", i, n, 1+i)
				}
			}
		})
	}
}
