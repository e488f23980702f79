package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"crncompose/internal/benchcrn"
	"crncompose/internal/classify"
	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/dist"
	"crncompose/internal/parse"
	"crncompose/internal/reach"
	"crncompose/internal/serve"
	"crncompose/internal/synth"
	"crncompose/internal/trace"
	"crncompose/internal/vec"
)

// Workload names.
const (
	checkHot  = "check-hot"
	checkCold = "check-cold"
	jobsLocal = "jobs-local"
	gridDist  = "grid-dist"
)

var workloads = []string{checkHot, checkCold, jobsLocal, gridDist}

// clients is every workload's closed-loop client count: one caller that
// sends its next operation when the previous one has completed, as
// crncheck -coordinator runs one job at a time. On a 2-CPU machine a
// second client put client, handler and engine goroutines in contention
// for the CPUs, which tripled the run-to-run spread of check-hot's median
// latency and pushed jobs-local's past 20%. runLoop is written for this
// one client.
const clients = 1

// maxCount is the per-species bound every check uses: the server's and
// crncheck's default, part of the content address.
const maxCount = int64(1) << 40

// jobPoll is the jobs-local client's status polling interval.
const jobPoll = 2 * time.Millisecond

// entry is one engine input of a workload's pool: a CRN text checked
// against a library function on [lo,hi]^d, with its reference body (the
// crncheck -json bytes of an in-process reach.CheckGrid).
type entry struct {
	label    string
	text     string
	fn       string
	lo, hi   int64
	mc       int    // budget; 0 means per-operation (mcBase(seed)+i)
	body     []byte // encoded request when mc is fixed
	ref      []byte
	explored int
	c        *crn.CRN
	f        reach.Func
}

// newEntry resolves a pool input: the CRN is re-read from its text, as the
// server and crncheck -crn read it, so references are computed on exactly
// what the program receives.
func newEntry(label string, c *crn.CRN, fn string, lo, hi int64, mc int) (*entry, error) {
	text := c.String()
	pc, err := parse.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	f, err := libraryFunc(fn)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	e := &entry{label: label, text: text, fn: fn, lo: lo, hi: hi, mc: mc, c: pc, f: f}
	if mc > 0 {
		if e.body, err = e.request(mc); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// libraryFunc resolves a library function name to an evaluator, as
// crncheck does on both sides of a distributed run.
func libraryFunc(name string) (reach.Func, error) {
	lf, ok := core.Library()[name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	return func(x []int64) int64 { return lf.Eval(vec.New(x...)) }, nil
}

func (e *entry) grid() (lo, hi []int64) {
	d := e.c.Dim()
	lo, hi = make([]int64, d), make([]int64, d)
	for i := range lo {
		lo[i], hi[i] = e.lo, e.hi
	}
	return lo, hi
}

// request encodes the /v1/check (and /v1/jobs) body asking for mc configs.
func (e *entry) request(mc int) ([]byte, error) {
	hi := e.hi
	return json.Marshal(serve.CheckRequest{CRN: e.text, Func: e.fn, Lo: e.lo, Hi: &hi, MaxConfigs: mc})
}

// checkGrid runs the in-process engine on the entry with the server's
// options (all CPUs unless workers says otherwise).
func (e *entry) checkGrid(mc, workers int) (reach.GridResult, error) {
	lo, hi := e.grid()
	return reach.CheckGrid(e.c, e.f, lo, hi,
		reach.WithMaxConfigs(mc), reach.WithMaxCount(maxCount), reach.WithWorkers(workers))
}

// budget is the exploration budget of operation i on this entry.
func (e *entry) budget(base, i int) int {
	if e.mc > 0 {
		return e.mc
	}
	return base + i
}

// computeRef fills the reference body. Per-operation budgets all exceed
// the graph sizes, so the reference at 1<<20 is every operation's bytes.
func (e *entry) computeRef() error {
	mc := e.mc
	if mc == 0 {
		mc = 1 << 20
	}
	res, err := e.checkGrid(mc, 0)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", e.label, err)
	}
	if e.ref, err = reach.MarshalGridResultIndent(res); err != nil {
		return err
	}
	e.explored = res.Explored
	return nil
}

// construction synthesizes the Lemma 6.2 general construction of a library
// function (classifier bound 8, threshold N=2: 1.2-1.7 KB of CRN text).
func construction(fn string) (*crn.CRN, error) {
	c, _, err := synth.General(core.Library()[fn], synth.GeneralOptions{
		Classify: classify.Options{Bound: 8},
		N:        2,
	})
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", fn, err)
	}
	return c, nil
}

// opResult is one completed operation as the client saw it. It is kept
// small: a check-hot run records 10^5 of them inside the process whose
// peak memory max_rss_mb reports.
type opResult struct {
	i          int32 // index in the workload's stream
	polls      int32 // jobs-local: status polls
	start, end int64 // unix nanoseconds: send, and verified bytes in hand
	doneSeen   int64 // jobs-local: when a poll first answered done
	failed     bool
}

func (r opResult) ms() float64 { return float64(r.end-r.start) / 1e6 }

// fixture is one workload set up and ready to time: its pool with reference
// bodies, the deck ordering it, and the live system under test.
type fixture struct {
	w       string
	pool    []*entry
	deck    deck
	base    int // mcBase(seed)
	nonce   uint64
	tr, wtr *trace.Tracer // serve's or the coordinator's tracer; dist workers' tracer
	next    int           // index of the stream's next operation

	srv    *serve.Server
	url    string
	client *http.Client
}

// traceID names operation i's trace: the client sends it in a W3C
// traceparent (parent span i+1), so the spans the system records for the
// operation land in it.
func (f *fixture) traceID(i int) string {
	return fmt.Sprintf("%016x%016x", f.nonce, uint64(i)+1)
}

func (f *fixture) traceparent(i int) string {
	return fmt.Sprintf("00-%s-%016x-01", f.traceID(i), uint64(i)+1)
}

// setup builds workload w from seed: its requests and their reference
// bodies, then a fresh system to run them against, warmed up. tr and wtr,
// when non-nil, trace that system (wtr only matters for grid-dist's
// workers).
func setup(w string, seed uint64, tr, wtr *trace.Tracer) (*fixture, error) {
	f, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	f.tr, f.wtr = tr, wtr
	for _, e := range f.pool {
		if err := e.computeRef(); err != nil {
			return nil, err
		}
	}
	if w == gridDist {
		f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}
		return f, f.warmDist()
	}
	f.srv = serve.New(serve.Config{Tracer: tr})
	if err := f.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.url = "http://" + f.srv.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute}
	return f, f.warm()
}

// generate builds workload w's pool and deck from seed; nothing runs yet.
func generate(w string, seed uint64) (*fixture, error) {
	f := &fixture{w: w, base: mcBase(seed), nonce: seed<<8 | 0x5e}
	var err error
	switch w {
	case checkHot:
		err = f.hotPool(seed)
	case checkCold:
		err = f.coldPool(seed)
	case jobsLocal:
		err = f.jobsPool(seed)
	case gridDist:
		err = f.distPool(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return f, err
}

// close stops the server and drops idle connections.
func (f *fixture) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.srv.Shutdown(ctx) // the run is over; nothing to report
	}
	f.client.CloseIdleConnections()
}

// hotPool is 32 distinct small checks: hand-written gadgets and synthesized
// constructions in fixed proportions on fixed small grids, whose every
// input completes within 65536 configurations. The seed draws each
// check's budget above that, which changes its content address but not
// its answer, so every seed's pool costs the same to answer. The
// proportions put the median among the min construction's requests and
// the 90th percentile among fig7's, away from a jump between CRN sizes.
func (f *fixture) hotPool(seed uint64) error {
	type src struct {
		label string
		c     *crn.CRN
		fn    string
		grids [][2]int64
	}
	small := [][2]int64{{0, 1}, {0, 2}, {1, 2}, {0, 3}}
	srcs := []src{
		{"branchy", benchcrn.Branchy(), "max", small},
		{"max", benchcrn.Max(), "max", small},
		{"mincrn", synth.MinCRN(2), "min", small},
	}
	for _, c := range []struct {
		fn    string
		grids [][2]int64
	}{
		{"min", [][2]int64{{0, 0}, {0, 1}, {1, 1}, {0, 0}, {0, 1}, {1, 1}, {0, 0}, {0, 1}}},
		{"fig4a", [][2]int64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}}, // (1,1) alone explores 86,780
		{"fig7", [][2]int64{{0, 0}, {0, 1}, {1, 1}, {0, 0}, {0, 1}, {1, 1}}},
	} {
		net, err := construction(c.fn)
		if err != nil {
			return err
		}
		srcs = append(srcs, src{c.fn + "-construction", net, c.fn, c.grids})
	}
	rng := rand.New(rand.NewPCG(seed, 0x686f74))
	seen := map[int]bool{}
	for _, s := range srcs {
		for _, g := range s.grids {
			mc := 1<<16 + rng.IntN(1<<16)
			for seen[mc] {
				mc = 1<<16 + rng.IntN(1<<16)
			}
			seen[mc] = true
			e, err := newEntry(fmt.Sprintf("%s[%d,%d]mc%d", s.label, g[0], g[1], mc), s.c, s.fn, g[0], g[1], mc)
			if err != nil {
				return err
			}
			f.pool = append(f.pool, e)
		}
	}
	slots := make([]int, len(f.pool))
	for i := range slots {
		slots[i] = i
	}
	f.deck = deck{slots: slots, seed: seed, fixed: true}
	return nil
}

// coldPool is Branchy on fifteen wide grids, the Fig 4a construction's one
// deep input on [0,1]^2 and [1,1]^2, and three checks against a function
// the CRN does not compute. A round of 24 requests holds each Branchy grid
// and wrong check once and each Fig 4a grid three times.
func (f *fixture) coldPool(seed uint64) error {
	br := benchcrn.Branchy()
	for lo := int64(0); lo <= 2; lo++ {
		for hi := int64(5); hi <= 9; hi++ {
			e, err := newEntry(fmt.Sprintf("branchy[%d,%d]", lo, hi), br, "max", lo, hi, 0)
			if err != nil {
				return err
			}
			f.pool = append(f.pool, e)
		}
	}
	fig, err := construction("fig4a")
	if err != nil {
		return err
	}
	for _, g := range []struct {
		label    string
		c        *crn.CRN
		fn       string
		lo, hi   int64
		multiple int
	}{
		{"fig4a[0,1]", fig, "fig4a", 0, 1, 3},
		{"fig4a[1,1]", fig, "fig4a", 1, 1, 3},
		{"wrong:branchy-vs-min[0,7]", br, "min", 0, 7, 1},
		{"wrong:max-vs-min[1,6]", benchcrn.Max(), "min", 1, 6, 1},
		{"wrong:mincrn-vs-max[0,5]", synth.MinCRN(2), "max", 0, 5, 1},
	} {
		e, err := newEntry(g.label, g.c, g.fn, g.lo, g.hi, 0)
		if err != nil {
			return err
		}
		f.pool = append(f.pool, e)
		for range g.multiple {
			f.deck.slots = append(f.deck.slots, len(f.pool)-1)
		}
	}
	for i := range 15 {
		f.deck.slots = append(f.deck.slots, i)
	}
	f.deck.seed = seed
	return nil
}

// jobsPool is Branchy on [lo,hi]^2, lo 0-1, hi 9-11: 40-160 ms of engine
// work each, once per round of six jobs.
func (f *fixture) jobsPool(seed uint64) error {
	br := benchcrn.Branchy()
	for lo := int64(0); lo <= 1; lo++ {
		for hi := int64(9); hi <= 11; hi++ {
			e, err := newEntry(fmt.Sprintf("branchy[%d,%d]", lo, hi), br, "max", lo, hi, 0)
			if err != nil {
				return err
			}
			f.pool = append(f.pool, e)
		}
	}
	f.deck = deck{slots: repeat(1, 1, 1, 1, 1, 1), seed: seed}
	return nil
}

// distPool is Branchy on [0,h]^2, h 8-10, and the Fig 4a construction on
// [0,1]^2, whose (1,1) input makes one rectangle a straggler; a round of
// five jobs holds h=8 twice and the others once, which puts the median in
// the middle of the h=9 jobs and the 90th percentile in the middle of the
// Fig 4a ones.
func (f *fixture) distPool(seed uint64) error {
	br := benchcrn.Branchy()
	for hi := int64(8); hi <= 10; hi++ {
		e, err := newEntry(fmt.Sprintf("branchy[0,%d]", hi), br, "max", 0, hi, 0)
		if err != nil {
			return err
		}
		f.pool = append(f.pool, e)
	}
	fig, err := construction("fig4a")
	if err != nil {
		return err
	}
	e, err := newEntry("fig4a[0,1]", fig, "fig4a", 0, 1, 0)
	if err != nil {
		return err
	}
	f.pool = append(f.pool, e)
	f.deck = deck{slots: repeat(2, 1, 1, 1), seed: seed}
	return nil
}

// warm primes the server before timing: check-hot's pool goes into the
// cache (each first answer verified), and the client connection serves a
// few requests (jobs-local: jobs) whose addresses the timed stream never
// uses.
func (f *fixture) warm() error {
	if f.w == checkHot {
		for _, e := range f.pool {
			if _, err := f.checkOp(-2, e, e.mc); err != nil {
				return fmt.Errorf("priming %s: %w", e.label, err)
			}
		}
	}
	n := 2
	if f.w == checkHot {
		n = 50
	}
	e, op := f.pool[0], f.checkOp
	if f.w == jobsLocal {
		op = f.jobOp
	}
	for k := range n {
		// Budgets below mcBase lie outside every timed address.
		if _, err := op(-2, e, e.budget(f.base-1-k, 0)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// warmDist runs one untimed job so the coordinator and worker paths have
// been through their first use.
func (f *fixture) warmDist() error {
	_, err := f.distOp(-1, f.pool[0], f.base-1)
	return err
}

func (f *fixture) do(req *http.Request) (int, []byte, error) {
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (f *fixture) post(path string, body []byte, tp string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, f.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tp)
	return f.do(req)
}

func (f *fixture) get(path, tp string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, f.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	return f.do(req)
}

// verify requires a 200 whose body is byte-identical to the reference.
func verify(code int, got, want []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, got)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("body differs from the crncheck -json reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// op runs operation i of the workload's stream.
func (f *fixture) op(i int) (opResult, error) {
	e := f.pool[f.deck.at(i)]
	mc := e.budget(f.base, i)
	switch f.w {
	case jobsLocal:
		return f.jobOp(i, e, mc)
	case gridDist:
		return f.distOp(i, e, mc)
	}
	return f.checkOp(i, e, mc)
}

// checkOp is one POST /v1/check, timed from send to verified bytes.
func (f *fixture) checkOp(i int, e *entry, mc int) (opResult, error) {
	body := e.body
	if body == nil {
		var err error
		if body, err = e.request(mc); err != nil {
			return opResult{}, err
		}
	}
	tp := f.traceparent(i)
	r := opResult{start: time.Now().UnixNano()}
	code, got, err := f.post("/v1/check", body, tp)
	if err == nil {
		err = verify(code, got, e.ref)
	}
	r.end = time.Now().UnixNano()
	return r, err
}

// jobOp submits POST /v1/jobs, polls the job every jobPoll until it is
// done, and fetches its result: timed from submit to verified body. Every
// request carries the operation's trace id, so the job's spans and all of
// its requests share one trace.
func (f *fixture) jobOp(i int, e *entry, mc int) (opResult, error) {
	body, err := e.request(mc)
	if err != nil {
		return opResult{}, err
	}
	tp := f.traceparent(i)
	r := opResult{start: time.Now().UnixNano()}
	err = func() error {
		code, got, err := f.post("/v1/jobs", body, tp)
		if err != nil {
			return err
		}
		var st serve.JobStatus
		for {
			if code != http.StatusOK && code != http.StatusAccepted {
				return fmt.Errorf("job status %d: %.200s", code, got)
			}
			if err := json.Unmarshal(got, &st); err != nil {
				return fmt.Errorf("job status: %w", err)
			}
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				return fmt.Errorf("job %s: %s", st.State, st.Error)
			}
			time.Sleep(jobPoll)
			r.polls++
			if code, got, err = f.get("/v1/jobs/"+st.ID, tp); err != nil {
				return err
			}
		}
		r.doneSeen = time.Now().UnixNano()
		code, got, err = f.get("/v1/jobs/"+st.ID+"/result", tp)
		if err != nil {
			return err
		}
		return verify(code, got, e.ref)
	}()
	r.end = time.Now().UnixNano()
	return r, err
}

// distOp runs one grid the way crncheck -coordinator does: a coordinator on
// loopback and two in-process workers with one engine thread each, then
// Wait. Timed from coordinator construction to the verified merged bytes;
// the workers' exit and the coordinator's shutdown follow untimed.
func (f *fixture) distOp(i int, e *entry, mc int) (opResult, error) {
	lo, hi := e.grid()
	var sc trace.SpanContext
	if f.tr != nil {
		sc, _ = trace.ParseTraceparent(f.traceparent(i)) // invalid for warm-up: a fresh trace
	}
	r := opResult{start: time.Now().UnixNano()}
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		CRN: e.c, Func: e.fn, Lo: lo, Hi: hi, MaxConfigs: mc, MaxCount: maxCount,
		Tracer: f.tr, TraceContext: sc,
	})
	if err == nil {
		err = co.Start("127.0.0.1:0")
	}
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for k := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &dist.Worker{
				Coordinator: co.Addr().String(),
				Name:        fmt.Sprintf("bench-w%d", k),
				Workers:     1,
				Client:      f.client,
				Tracer:      f.wtr,
				Resolve:     libraryFunc,
			}
			werrs[k] = w.Run(ctx)
		}()
	}
	res, err := co.Wait(ctx)
	if err == nil {
		var got []byte
		if got, err = reach.MarshalGridResultIndent(res); err == nil {
			err = verify(http.StatusOK, got, e.ref)
		}
	}
	r.end = time.Now().UnixNano()
	wg.Wait()
	// Close the workers' connections first: http.Server.Shutdown waits up to
	// 5 s for a connection the client dialed but never used.
	f.client.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = co.Shutdown(sctx) // the job is finished; shutdown only frees the port
	scancel()
	for _, werr := range werrs {
		if err == nil && werr != nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return r, err
}
