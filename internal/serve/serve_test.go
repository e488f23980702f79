package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/parse"
	"crncompose/internal/reach"
	"crncompose/internal/vec"
)

const (
	minCRNText = "#input X1 X2\n#output Y\nX1 + X2 -> Y\n"
	// sumCRNText claims min but computes sum: refuted with a witness.
	sumCRNText = "#input X1 X2\n#output Y\nX1 -> Y\nX2 -> Y\n"
)

// newTestServer returns a serve.Server (shut down at test end) and an
// httptest front end for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// post sends a JSON body and returns status, X-Cache header, and body.
func post(t *testing.T, url string, body any) (int, string, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, contentTypeJSON, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// wantCheckBody computes the exact bytes crncheck -json prints for the
// request: the engine result through the one shared encoder.
func wantCheckBody(t *testing.T, crnText string, f reach.Func, hi int64) []byte {
	t.Helper()
	c, err := parse.Parse(crnText)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dim()
	los, his := make([]int64, d), make([]int64, d)
	for i := range his {
		his[i] = hi
	}
	res, err := reach.CheckGrid(c, f, los, his, reach.WithMaxConfigs(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	body, err := reach.MarshalGridResultIndent(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var minEval = func(x []int64) int64 { return min(x[0], x[1]) }

// TestCheckByteIdentity pins the tentpole contract: the /v1/check body is
// byte-identical to crncheck -json for the same CRN/function/bounds — for a
// verified grid and for a refuted one whose body carries a witness schedule.
func TestCheckByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, crn string
		hi        int64
	}{
		{"verified_min", minCRNText, 3},
		{"refuted_sum_as_min", sumCRNText, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, source, body := post(t, ts.URL+"/v1/check", CheckRequest{CRN: tc.crn, Func: "min", Hi: &tc.hi})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if source != cacheMiss {
				t.Fatalf("first request X-Cache = %q, want %q", source, cacheMiss)
			}
			want := wantCheckBody(t, tc.crn, minEval, tc.hi)
			if !bytes.Equal(body, want) {
				t.Fatalf("served body differs from crncheck -json:\nserved:\n%s\nwant:\n%s", body, want)
			}
			if tc.name == "refuted_sum_as_min" && !bytes.Contains(body, []byte(`"witness"`)) {
				t.Fatalf("refuted body carries no witness:\n%s", body)
			}
		})
	}
}

// TestCheckDefaultsMatchCLI: a minimal request (defaults filled server-side)
// verifies under crncheck's default budgets, and a differently formatted CRN
// text canonicalizes to the same cache entry.
func TestCheckDefaultsMatchCLI(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs int
	s.testComputed = func(string) { runs++ }
	status, _, body := post(t, ts.URL+"/v1/check", map[string]any{"crn": minCRNText, "func": "min"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if want := wantCheckBody(t, minCRNText, minEval, 3); !bytes.Equal(body, want) {
		t.Fatalf("default-budget body differs from crncheck -json default")
	}
	// Same CRN with extra whitespace and explicit defaults: canonicalizes to
	// the same content address — a cache hit, not a second run.
	messy := "#input X1 X2\n#output Y\n  X1   +  X2 ->   Y \n"
	status, source, body2 := post(t, ts.URL+"/v1/check", map[string]any{
		"crn": messy, "func": "min", "lo": 0, "hi": 3, "maxconfigs": 1 << 20,
	})
	if status != http.StatusOK || source != cacheHit {
		t.Fatalf("canonicalized re-request: status %d X-Cache %q, want 200 %q", status, source, cacheHit)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache replayed different bytes")
	}
	if runs != 1 {
		t.Fatalf("%d engine runs, want 1", runs)
	}
}

func TestClassify(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/classify", ClassifyRequest{Func: "min"})
	if status != http.StatusOK {
		t.Fatalf("classify min: %d %s", status, body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Computable || resp.Terms == 0 {
		t.Fatalf("min: %+v", resp)
	}
	status, _, body = post(t, ts.URL+"/v1/classify", ClassifyRequest{Func: "max"})
	if status != http.StatusOK {
		t.Fatalf("classify max: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Computable || resp.Contradiction == "" {
		t.Fatalf("max must be non-computable with a Lemma 4.1 certificate: %+v", resp)
	}
}

func TestSynthesizeThenCheckRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// N=1 keeps the general construction small enough that the follow-up
	// model check stays test-sized.
	status, _, body := post(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Func: "min", N: 1})
	if status != http.StatusOK {
		t.Fatalf("synthesize min: %d %s", status, body)
	}
	var resp SynthesizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OutputOblivious || resp.CRN == "" {
		t.Fatalf("min synthesis: %+v", resp)
	}
	// The emitted CRN text feeds straight back into /v1/check and verifies.
	hi := int64(1)
	status, _, body = post(t, ts.URL+"/v1/check", CheckRequest{CRN: resp.CRN, Func: "min", Hi: &hi})
	if status != http.StatusOK {
		t.Fatalf("check of synthesized CRN: %d %s", status, body)
	}
	if !bytes.Contains(body, []byte(`"checked": 4`)) || bytes.Contains(body, []byte(`"failure"`)) {
		t.Fatalf("synthesized CRN did not verify:\n%s", body)
	}
	// max is not obliviously-computable: synthesis must fail with the
	// contradiction certificate.
	status, _, body = post(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Func: "max"})
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "not obliviously-computable") {
		t.Fatalf("synthesize max: %d %s", status, body)
	}
}

func TestSimulateDeterministicAndCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs int
	s.testComputed = func(string) { runs++ }
	req := SimulateRequest{CRN: minCRNText, X: []int64{5, 3}, Method: "fair", Trials: 4, Seed: 7}
	status, source, body := post(t, ts.URL+"/v1/simulate", req)
	if status != http.StatusOK || source != cacheMiss {
		t.Fatalf("simulate: %d %q %s", status, source, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Converged != 4 || !resp.Summary.AllEqual || resp.Summary.MinOutput != 3 {
		t.Fatalf("min(5,3) ensemble: %+v", resp.Summary)
	}
	status, source, body2 := post(t, ts.URL+"/v1/simulate", req)
	if status != http.StatusOK || source != cacheHit || !bytes.Equal(body, body2) {
		t.Fatalf("repeat simulate not a byte-identical cache hit: %d %q", status, source)
	}
	if runs != 1 {
		t.Fatalf("%d engine runs, want 1", runs)
	}
	// A different seed is a different content address.
	req.Seed = 8
	if _, source, _ = post(t, ts.URL+"/v1/simulate", req); source != cacheMiss {
		t.Fatalf("different seed served from cache (%q)", source)
	}
}

func TestSimulateGillespieReportsTime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/simulate", SimulateRequest{
		CRN: minCRNText, X: []int64{10, 10}, Method: "gillespie", Trials: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("%d %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trials) != 1 || resp.Trials[0].Time <= 0 || !resp.Trials[0].Converged {
		t.Fatalf("gillespie trial: %+v", resp.Trials)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi3 := int64(3)
	for name, tc := range map[string]struct {
		path string
		body any
	}{
		"check_bad_crn":        {"/v1/check", CheckRequest{CRN: "not a crn", Func: "min"}},
		"check_unknown_func":   {"/v1/check", CheckRequest{CRN: minCRNText, Func: "bogus"}},
		"check_arity":          {"/v1/check", CheckRequest{CRN: "#input X\n#output Y\nX -> Y\n", Func: "min"}},
		"check_empty":          {"/v1/check", CheckRequest{}},
		"check_bad_bounds":     {"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Lo: 5, Hi: &hi3}},
		"classify_unknown":     {"/v1/classify", ClassifyRequest{Func: "bogus"}},
		"simulate_bad_method":  {"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{1, 1}, Method: "quantum"}},
		"simulate_arity":       {"/v1/simulate", SimulateRequest{CRN: minCRNText, X: []int64{1}}},
		"jobs_unknown_func":    {"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "bogus"}},
		"synthesize_unknown":   {"/v1/synthesize", SynthesizeRequest{Func: "bogus"}},
		"synthesize_ll_not_1d": {"/v1/synthesize", SynthesizeRequest{Func: "min", Leaderless: true}},
	} {
		t.Run(name, func(t *testing.T) {
			status, _, body := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
				t.Fatalf("accepted with %d: %s", status, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not {\"error\": ...}: %s", body)
			}
		})
	}
}

// TestCheckMaxConfigsCap pins the admission bound on a client's
// exploration budget: one past MaxCheckConfigs is a 400 on both the
// synchronous and the async path, before any engine work, and the bound
// itself is served.
func TestCheckMaxConfigsCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(1)
	over := CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi, MaxConfigs: MaxCheckConfigs + 1}
	for _, path := range []string{"/v1/check", "/v1/jobs"} {
		status, _, body := post(t, ts.URL+path, over)
		if status != http.StatusBadRequest {
			t.Fatalf("%s with maxconfigs %d: status %d, want 400: %s", path, over.MaxConfigs, status, body)
		}
		if !bytes.Contains(body, []byte("maxconfigs")) {
			t.Fatalf("%s: error does not name maxconfigs: %s", path, body)
		}
	}
	atCap := CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi, MaxConfigs: MaxCheckConfigs}
	if status, _, body := post(t, ts.URL+"/v1/check", atCap); status != http.StatusOK {
		t.Fatalf("maxconfigs %d: status %d: %s", MaxCheckConfigs, status, body)
	}
}

// sizedCRNText returns a CRN text with inputs X1 and X2 and output Y, of
// exactly species species (at least 3) and reactions reactions (at least
// 1): one reaction consumes every extra species S0, S1, ..., and the rest
// repeat X1 + X2 -> Y.
func sizedCRNText(species, reactions int) string {
	var b strings.Builder
	b.WriteString("#input X1 X2\n#output Y\nX1 + X2")
	for i := range species - 3 {
		fmt.Fprintf(&b, " + S%d", i)
	}
	b.WriteString(" -> Y\n")
	for range reactions - 1 {
		b.WriteString("X1 + X2 -> Y\n")
	}
	return b.String()
}

// TestCRNSizeCaps pins the admission bounds on CRN size: one species or
// reaction past MaxCRNSpecies or MaxCRNReactions is a 400 on /v1/check,
// /v1/jobs and /v1/simulate, and a CRN at both bounds resolves. The
// library's constructions stay far below both.
func TestCRNSizeCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hi := int64(1)
	for name, text := range map[string]string{
		"species":   sizedCRNText(MaxCRNSpecies+1, 1),
		"reactions": sizedCRNText(3, MaxCRNReactions+1),
	} {
		for path, body := range map[string]any{
			"/v1/check":    CheckRequest{CRN: text, Func: "min", Hi: &hi},
			"/v1/jobs":     CheckRequest{CRN: text, Func: "min", Hi: &hi},
			"/v1/simulate": SimulateRequest{CRN: text, X: []int64{1, 1}},
		} {
			status, _, resp := post(t, ts.URL+path, body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s over the %s bound: status %d, want 400: %s", path, name, status, resp)
			}
			if !bytes.Contains(resp, []byte(name)) {
				t.Fatalf("%s: error does not name %s: %s", path, name, resp)
			}
		}
	}
	atCaps := sizedCRNText(MaxCRNSpecies, MaxCRNReactions)
	j, err := resolveCheck(CheckRequest{CRN: atCaps, Func: "min", Hi: &hi})
	if err != nil {
		t.Fatalf("check at both bounds rejected: %v", err)
	}
	if n, r := j.c.NumSpecies(), j.c.NumReactions(); n != MaxCRNSpecies || r != MaxCRNReactions {
		t.Fatalf("the CRN at both bounds has %d species and %d reactions", n, r)
	}
	if _, err := resolveSimulate(SimulateRequest{CRN: atCaps, X: []int64{1, 1}}); err != nil {
		t.Fatalf("simulation at both bounds rejected: %v", err)
	}
	built := 0
	for _, name := range core.LibraryNames() {
		f, _ := core.Lookup(name)
		sys, err := core.Synthesize(context.Background(), f, 0, 0, false, nil)
		if err != nil {
			continue // not obliviously computable: nothing to serve
		}
		built++
		if n, r := sys.Net.NumSpecies(), sys.Net.NumReactions(); n > MaxCRNSpecies/8 || r > MaxCRNReactions/8 {
			t.Errorf("library %s: %d species, %d reactions, within 8x of the bounds", name, n, r)
		}
	}
	if built < 5 {
		t.Fatalf("only %d library functions synthesized", built)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK || !bytes.Contains(body, []byte("true")) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	hi := int64(1)
	post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	status, body := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats after one check: %+v", st.Cache)
	}
}

// TestCheckLargeGridGoesAsync: a grid beyond SyncGridLimit answers 202 with
// a job that completes to the exact synchronous body, after which /v1/check
// serves it as a plain cache hit.
func TestCheckLargeGridGoesAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{SyncGridLimit: 4})
	hi := int64(2) // 9 points > 4
	status, _, body := post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusAccepted {
		t.Fatalf("large grid answered %d, want 202: %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, ts.URL, js.ID)
	if final.State != jobDone || final.Rects != 1 || final.RectsDone != 1 {
		t.Fatalf("local job did not complete its one rectangle: %+v", final)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	want := wantCheckBody(t, minCRNText, minEval, hi)
	if !bytes.Equal(result, want) {
		t.Fatalf("job result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
	status, source, body := post(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusOK || source != cacheHit || !bytes.Equal(body, want) {
		t.Fatalf("finished job not served as cache hit: %d %q", status, source)
	}
}

// awaitJob polls a job to a terminal state.
func awaitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := get(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("job status: %d %s", status, body)
		}
		var js JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		if terminalState(js.State) {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", js)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVecRoundTrip guards the assumption that vec.New and a plain []int64
// produce the same initial configuration (the serve layer passes request
// slices straight through).
func TestVecRoundTrip(t *testing.T) {
	c, err := parse.Parse(minCRNText)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.InitialConfig([]int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := c.MustInitialConfig(vec.New(2, 3))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%v vs %v", a, b)
	}
}
