package serve

import (
	"bytes"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
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
	rc := newResultCache(2)
	boom := errors.New("boom")
	if _, _, err := rc.do("k", func() (cached, error) { return cached{}, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, ok := rc.get("k"); ok {
		t.Fatal("error was cached")
	}
	val := cached{status: 200, contentType: contentTypeJSON, body: []byte("v")}
	if got, source, err := rc.do("k", func() (cached, error) { return val, nil }); err != nil || source != cacheMiss || !bytes.Equal(got.body, val.body) {
		t.Fatalf("%+v %q %v", got, source, err)
	}
	if _, source, _ := rc.do("k", func() (cached, error) { t.Fatal("recomputed"); return cached{}, nil }); source != cacheHit {
		t.Fatalf("source %q", source)
	}
	// Touch order on a fresh cache: a, b, touch a, insert c → b evicted.
	rc = newResultCache(2)
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
	rc0 := newResultCache(0)
	rc0.put("x", val)
	if _, ok := rc0.get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	var n int
	for i := 0; i < 2; i++ {
		if _, _, err := rc0.do("x", func() (cached, error) { n++; return val, nil }); err != nil {
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
