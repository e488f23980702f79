package main

import (
	"fmt"
	"runtime"
	"time"

	"crncompose/internal/parse"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// Span ring capacities. A traced loop stops at three quarters of its
// ring, so trace.spans_dropped stays 0 whatever the throughput.
const (
	hotCap  = 1 << 18 // check-hot: two spans per request, thousands of requests a second
	passCap = 1 << 16
)

// companion is how long the traced run drives each workload other than
// the one it reports, to measure the layers only that workload reaches.
const companion = 1500 * time.Millisecond

// hotCompanion is how long the check-hot interleave runs when check-hot is
// not the reported workload.
const hotCompanion = 4 * time.Second

// pass is one workload driven against a traced system: its operations and
// the spans recorded for them.
type pass struct {
	f        *fixture
	loop     loop
	spans    []trace.SpanData // the server's, or the coordinator's with the workers' shipped spans
	wspans   []trace.SpanData // dist workers' own ring
	dropped  uint64
	hitRatio float64
}

func stopAt(tr *trace.Tracer, capacity int) func() bool {
	return func() bool {
		rec, _ := tr.Stats()
		return rec >= uint64(capacity)*3/4
	}
}

// tracedPass sets w up on a traced system and drives it for dur.
func tracedPass(rep *report, w string, seed uint64, dur time.Duration, atLeast int) (*pass, error) {
	tr := trace.New(trace.Options{Proc: "crnserve", Cap: passCap})
	var wtr *trace.Tracer
	stop := stopAt(tr, passCap)
	if w == gridDist {
		tr = trace.New(trace.Options{Proc: "coordinator", Cap: passCap})
		wtr = trace.New(trace.Options{Proc: "worker", Cap: passCap})
		cs, ws := stopAt(tr, passCap), stopAt(wtr, passCap)
		stop = func() bool { return cs() || ws() }
	}
	f, err := setup(w, seed, tr, wtr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w, err)
	}
	defer f.close()
	before := f.cacheCounters()
	runtime.GC()
	p := &pass{f: f, loop: runLoop(f, dur, atLeast, stop)}
	p.hitRatio = f.checkHitRatio(rep, before)
	rep.count(p.loop)
	p.spans, p.wspans = tr.Snapshot(), wtr.Snapshot()
	_, d1 := tr.Stats()
	_, d2 := wtr.Stats()
	p.dropped = d1 + d2
	return p, nil
}

// hotInterleave runs check-hot on two servers built from the same seed,
// one untraced and one traced, in alternating segments (U T T U ...) with a
// GC before each, so drift and heap state fall equally on both sides. It
// returns the traced side as a pass, the tracing overhead (the median over
// adjacent segment pairs of traced / untraced median latency, minus 1), and
// the process-wide allocations per untraced request.
func hotInterleave(rep *report, seed uint64, dur time.Duration) (p *pass, overhead, allocs float64, err error) {
	fu, err := setup(checkHot, seed, nil, nil)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("check-hot set-up: %w", err)
	}
	defer fu.close()
	tr := trace.New(trace.Options{Proc: "crnserve", Cap: hotCap})
	ft, err := setup(checkHot, seed, tr, nil)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("check-hot set-up: %w", err)
	}
	defer ft.close()
	const segments = 16
	seg := max(dur/segments, 50*time.Millisecond)
	stop := stopAt(tr, hotCap)
	before := ft.cacheCounters()
	p = &pass{f: ft}
	var untraced loop
	var mallocs uint64
	var ratios, prev []float64
	for k := range segments {
		runtime.GC()
		traced := k%4 == 1 || k%4 == 2
		var l loop
		if traced {
			l = runLoop(ft, seg, 0, stop)
			p.loop.add(l)
		} else {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			l = runLoop(fu, seg, 0, nil)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			untraced.add(l)
		}
		lat := l.latencies()
		if k%2 == 1 && len(lat) > 0 && len(prev) > 0 {
			t, u := median(lat), median(prev)
			if !traced {
				t, u = u, t
			}
			ratios = append(ratios, t/u)
		}
		prev = lat
	}
	p.hitRatio = ft.checkHitRatio(rep, before)
	rep.count(p.loop)
	rep.count(untraced)
	p.spans = tr.Snapshot()
	_, p.dropped = tr.Stats()
	if len(ratios) == 0 {
		return nil, 0, 0, fmt.Errorf("check-hot interleave completed no requests")
	}
	return p, median(ratios) - 1, float64(mallocs) / float64(max(untraced.n, 1)), nil
}

// tracedRun is the per-layer pass. Every workload runs traced: w for dur,
// the others for companion, so each per-layer metric is measured in every
// run. A metric comes from w's own pass when w exercises its layer, and
// otherwise from the workload the metric belongs to.
func tracedRun(rep *report, w string, seed uint64, dur time.Duration) error {
	passes := map[string]*pass{}
	hotDur := hotCompanion
	if w == checkHot {
		hotDur = dur
	}
	hot, overhead, allocs, err := hotInterleave(rep, seed, hotDur)
	if err != nil {
		return err
	}
	passes[checkHot] = hot
	for _, x := range workloads[1:] {
		d, atLeast := companion, 4
		if x == w {
			d, atLeast = dur, minOps
		}
		if passes[x], err = tracedPass(rep, x, seed, d, atLeast); err != nil {
			return err
		}
	}
	var dropped uint64
	for _, p := range passes {
		dropped += p.dropped
	}
	if dropped > 0 {
		rep.fail("%d spans dropped from a trace ring", dropped)
	}
	own := func(owners ...string) *pass {
		for _, o := range owners {
			if o == w {
				return passes[w]
			}
		}
		return passes[owners[0]]
	}

	req := requestLayers(own(checkHot, checkCold))
	rep.add("serve.request_ms", req.request, "ms", "serve.request span, mean")
	rep.add("serve.request_self_ms", req.self, "ms", "serve.request minus the union of its child spans: decode, canonicalize + hash, write")
	rep.add("serve.cache.lookup_ms", req.lookup, "ms", "serve.cache.lookup span, mean")
	rep.add("net.loopback_ms", req.net, "ms", "client latency minus serve.request, mean")
	rep.add("serve.cache.hit_ratio", own(checkHot, checkCold).hitRatio, "ratio", "hits / lookups from /v1/stats")
	rep.add("parse.parse_ms", parseMs(own(checkHot, checkCold).f), "ms", "parse.Parse on the mix's CRN texts, weighted by request share")
	rep.add("serve.allocs_per_op", allocs, "count", "process-wide mallocs per untraced check-hot request")
	rep.add("trace.overhead_ratio", overhead, "ratio", "traced / untraced check-hot median latency - 1, interleaved")

	cold := requestLayers(passes[checkCold])
	rep.add("serve.compute_ms", cold.compute, "ms", "serve.compute span, mean")
	rep.add("serve.singleflight.parks", float64(cold.parks), "count", "serve.singleflight.park spans")
	engineLayers(rep, passes[checkCold].f)

	jobs := jobLayers(passes[jobsLocal])
	rep.add("serve.job_ms", jobs.job, "ms", "serve.job span, mean")
	rep.add("serve.job.admission_ms", jobs.admission, "ms", "serve.job.admission span, mean")
	rep.add("serve.rect_ms", jobs.rect, "ms", "serve.rect span, mean")
	rep.add("serve.rects_per_job", jobs.rects, "count", "")
	rep.add("serve.job.polls_per_job", jobs.polls, "count", fmt.Sprintf("polling every %s", jobPoll))
	rep.add("serve.job.poll_lag_ms", jobs.lag, "ms", "client sees done - serve.job span end, mean")

	dl := distLayers(passes[gridDist])
	rep.add("dist.lease_ms", dl.lease, "ms", "dist.lease span, mean")
	rep.add("dist.rect_ms", dl.rect, "ms", "dist.rect span, mean")
	rep.add("dist.merge_ms", dl.merge, "ms", "dist.merge span, mean")
	rep.add("dist.lease_overhead_ms", dl.overhead, "ms", "dist.lease - its dist.rect, mean per lease")
	rep.add("dist.leases_per_job", dl.leases, "count", "")
	rep.add("httpx.attempts_per_job", dl.attempts, "count", "")
	rep.add("httpx.retries", float64(dl.retries), "count", "attempts after the first")
	rep.add("dist.vs_local", dl.vsLocal, "ratio", "grid-dist median latency / local reach.CheckGrid median on the same grids")

	rep.add("trace.spans_dropped", float64(dropped), "count", "")
	rep.add("layers.unaccounted_ratio", unaccounted(passes[w]), "ratio",
		"share of "+w+" client time covered by no span")
	return nil
}

// spanIndex groups a ring's spans by trace and by parent.
type spanIndex struct {
	byTrace  map[string][]*trace.SpanData
	children map[string][]interval
}

func indexSpans(spans []trace.SpanData) spanIndex {
	idx := spanIndex{byTrace: map[string][]*trace.SpanData{}, children: map[string][]interval{}}
	for i := range spans {
		d := &spans[i]
		idx.byTrace[d.TraceID] = append(idx.byTrace[d.TraceID], d)
		if d.Parent != "" {
			idx.children[d.Parent] = append(idx.children[d.Parent], ivOf(d))
		}
	}
	return idx
}

func ivOf(d *trace.SpanData) interval { return interval{d.Start, d.End} }

func durMs(d *trace.SpanData) float64 { return float64(d.End-d.Start) / 1e6 }

// opSpans returns, per successful operation, the spans of its trace.
func (p *pass) opSpans() ([]opResult, [][]*trace.SpanData, spanIndex) {
	idx := indexSpans(p.spans)
	var ops []opResult
	var spans [][]*trace.SpanData
	p.loop.ok(func(op opResult) {
		ops = append(ops, op)
		spans = append(spans, idx.byTrace[p.f.traceID(int(op.i))])
	})
	return ops, spans, idx
}

// named returns the durations (ms) of the spans called name.
func named(spans []*trace.SpanData, name string) []float64 {
	var out []float64
	for _, d := range spans {
		if d.Name == name {
			out = append(out, durMs(d))
		}
	}
	return out
}

// unaccounted is the share of the pass's client-observed time that no span
// of the operation's trace covers: loopback, the HTTP client and server
// plumbing, and whatever a layer does outside its spans.
func unaccounted(p *pass) float64 {
	ops, spans, _ := p.opSpans()
	var e2e, cov int64
	for i, op := range ops {
		ivs := make([]interval, len(spans[i]))
		for k, d := range spans[i] {
			ivs[k] = ivOf(d)
		}
		e2e += op.end - op.start
		cov += covered(op.start, op.end, ivs)
	}
	if e2e == 0 {
		return 0
	}
	return 1 - float64(cov)/float64(e2e)
}

type requestStats struct {
	request, self, lookup, compute, net float64
	parks                               int
}

// requestLayers folds /v1/check request spans: serve.request and its
// children, and the client's latency beyond the request span.
func requestLayers(p *pass) requestStats {
	ops, spans, idx := p.opSpans()
	var s requestStats
	var req, self, lookup, compute, net []float64
	for i, op := range ops {
		for _, d := range spans[i] {
			switch d.Name {
			case "serve.request":
				req = append(req, durMs(d))
				self = append(self, float64(selfTime(ivOf(d), idx.children[d.SpanID]))/1e6)
				net = append(net, op.ms()-durMs(d))
			case "serve.cache.lookup":
				lookup = append(lookup, durMs(d))
			case "serve.compute":
				compute = append(compute, durMs(d))
			case "serve.singleflight.park":
				s.parks++
			}
		}
	}
	s.request, s.self, s.lookup, s.compute, s.net = mean(req), mean(self), mean(lookup), mean(compute), mean(net)
	return s
}

type jobStats struct{ job, admission, rect, rects, polls, lag float64 }

// jobLayers folds each job's trace: the submit, poll and result requests
// and the job's own spans all carry the operation's trace id.
func jobLayers(p *pass) jobStats {
	ops, spans, _ := p.opSpans()
	var job, adm, rect, polls, lag []float64
	for i, op := range ops {
		for _, d := range spans[i] {
			if d.Name == "serve.job" {
				lag = append(lag, float64(op.doneSeen-d.End)/1e6)
			}
		}
		job = append(job, named(spans[i], "serve.job")...)
		adm = append(adm, named(spans[i], "serve.job.admission")...)
		rect = append(rect, named(spans[i], "serve.rect")...)
		polls = append(polls, float64(op.polls))
	}
	return jobStats{mean(job), mean(adm), mean(rect), float64(len(rect)) / float64(max(len(ops), 1)), mean(polls), mean(lag)}
}

type distStats struct {
	lease, rect, merge, overhead, leases, attempts, vsLocal float64
	retries                                                 int
}

// distLayers folds the coordinator's ring (dist.job, dist.lease,
// dist.merge, and the dist.rect spans workers ship with their results) and
// the workers' own ring (httpx.attempt for /job, /lease, /renew, /result).
func distLayers(p *pass) distStats {
	ops, spans, _ := p.opSpans()
	var s distStats
	var lease, rect, merge, over []float64
	for i := range ops {
		for _, d := range spans[i] {
			if d.Name != "dist.lease" {
				continue
			}
			for _, c := range spans[i] {
				if c.Name == "dist.rect" && c.Parent == d.SpanID {
					over = append(over, durMs(d)-durMs(c))
				}
			}
		}
		lease = append(lease, named(spans[i], "dist.lease")...)
		rect = append(rect, named(spans[i], "dist.rect")...)
		merge = append(merge, named(spans[i], "dist.merge")...)
	}
	n := float64(max(len(ops), 1))
	s.lease, s.rect, s.merge, s.overhead, s.leases = mean(lease), mean(rect), mean(merge), mean(over), float64(len(lease))/n
	attempts := 0
	for i := range p.wspans {
		d := &p.wspans[i]
		if d.Name != "httpx.attempt" || d.Start < p.loop.start.UnixNano() {
			continue
		}
		attempts++
		if d.Attrs["attempt"] != "1" {
			s.retries++
		}
	}
	s.attempts = float64(attempts) / n
	lat := p.loop.latencies()
	var local []float64
	for _, slot := range p.f.deck.slots {
		e := p.f.pool[slot]
		local = append(local, timeMs(1, func() { _, _ = e.checkGrid(1<<20, 0) }))
	}
	if m := median(local); m > 0 {
		s.vsLocal = median(lat) / m
	}
	return s
}

// timeMs runs fn reps times and returns the median wall time in ms.
func timeMs(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ts)
}

// parseMs times parse.Parse on the CRN text of every deck slot: a mean
// weighted by each text's share of the requests.
func parseMs(f *fixture) float64 {
	per := map[*entry]float64{}
	var slots []float64
	for _, s := range f.deck.slots {
		e := f.pool[s]
		t, ok := per[e]
		if !ok {
			t = timeMs(5, func() {
				for range 20 {
					_, _ = parse.Parse(e.text)
				}
			}) / 20
			per[e] = t
		}
		slots = append(slots, t)
	}
	return mean(slots)
}

// engineLayers times the reach layer's public functions from outside on
// check-cold's engine inputs, with the server's options.
func engineLayers(rep *report, f *fixture) {
	type timing struct {
		check, marshal float64
		explored       int
	}
	per := map[*entry]timing{}
	var check, marshal []float64
	explored := 0
	for _, s := range f.deck.slots {
		e := f.pool[s]
		t, ok := per[e]
		if !ok {
			var res reach.GridResult
			t.check = timeMs(1, func() { res, _ = e.checkGrid(1<<20, 0) })
			t.marshal = timeMs(5, func() {
				for range 20 {
					_, _ = reach.MarshalGridResultIndent(res)
				}
			}) / 20
			t.explored = res.Explored
			per[e] = t
		}
		check = append(check, t.check)
		marshal = append(marshal, t.marshal)
		explored += t.explored
	}
	rep.add("reach.checkgrid_ms", mean(check), "ms", "reach.CheckGrid per input, weighted by request share")
	rep.add("reach.marshal_ms", mean(marshal), "ms", "reach.MarshalGridResultIndent, weighted by request share")
	rep.add("reach.configs_explored", float64(explored), "count", fmt.Sprintf("Explored summed over one round of %d requests", len(f.deck.slots)))

	small, points := 0, 0
	seen := map[string]bool{}
	for _, e := range f.pool {
		lo, hi := e.grid()
		for _, x := range gridPoints(lo, hi) {
			key := fmt.Sprint(e.text, x)
			if seen[key] {
				continue
			}
			seen[key] = true
			root, err := e.c.InitialConfig(x)
			if err != nil {
				continue
			}
			points++
			if reach.Explore(root, reach.WithWorkers(1), reach.WithMaxConfigs(512)).Complete {
				small++
			}
		}
	}
	rep.add("reach.small_input_share", float64(small)/float64(max(points, 1)), "ratio",
		fmt.Sprintf("%d of %d distinct grid inputs complete within the 512-config probe", small, points))

	wide, deep := find(f, "branchy[0,9]"), find(f, "fig4a[1,1]")
	root, err := deep.c.InitialConfig([]int64{1, 1})
	if err == nil {
		var g *reach.Graph
		rep.add("reach.explore_ms", timeMs(2, func() {
			g = reach.Explore(root, reach.WithMaxConfigs(1<<20), reach.WithMaxCount(maxCount), reach.WithWorkers(0))
		}), "ms", fmt.Sprintf("reach.Explore on the Fig 4a construction at (1,1): %d configs", g.NumConfigs()))
		rep.add("reach.stable_ms", timeMs(3, func() { g.StableIDs() }), "ms", "(*Graph).StableIDs on that graph")
	} else {
		rep.fail("fig4a root: %v", err)
	}
	n := runtime.NumCPU()
	for _, s := range []struct {
		name string
		e    *entry
		reps int
	}{{"reach.speedup_wide", wide, 3}, {"reach.speedup_deep", deep, 2}} {
		t1 := timeMs(s.reps, func() { _, _ = s.e.checkGrid(1<<20, 1) })
		tn := timeMs(s.reps, func() { _, _ = s.e.checkGrid(1<<20, n) })
		rep.add(s.name, t1/tn, "ratio", fmt.Sprintf("%s: %.3f ms at 1 worker / %.3f ms at %d", s.e.label, t1, tn, n))
	}
}

func find(f *fixture, label string) *entry {
	for _, e := range f.pool {
		if e.label == label {
			return e
		}
	}
	panic("perfbench: no pool entry " + label) // the pools are fixed in this file's package
}

// gridPoints lists [lo,hi] in lexicographic order.
func gridPoints(lo, hi []int64) [][]int64 {
	var out [][]int64
	x := append([]int64(nil), lo...)
	for {
		out = append(out, append([]int64(nil), x...))
		i := len(x) - 1
		for ; i >= 0; i-- {
			if x[i]++; x[i] <= hi[i] {
				break
			}
			x[i] = lo[i]
		}
		if i < 0 {
			return out
		}
	}
}
