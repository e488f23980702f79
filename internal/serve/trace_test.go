package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/trace"
)

// clientTraceparent is a fixed incoming W3C trace context, as an external
// caller (or an httpx attempt span) would send it.
const (
	clientTraceID     = "0af7651916cd43dd8448eb211c80319c"
	clientSpanID      = "b7ad6b7169203331"
	clientTraceparent = "00-" + clientTraceID + "-" + clientSpanID + "-01"
)

// postTraced is post with a traceparent request header.
func postTraced(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentTypeJSON)
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
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

func spansByName(spans []trace.SpanData) map[string][]trace.SpanData {
	m := make(map[string][]trace.SpanData)
	for _, d := range spans {
		m[d.Name] = append(m[d.Name], d)
	}
	return m
}

// TestTraceSyncCheck: a traced synchronous /v1/check continues the caller's
// trace — the serve.request root parents under the incoming traceparent, the
// cache lookup and compute spans parent under the root, and engine stage
// events surface as spans via the progress adapter.
func TestTraceSyncCheck(t *testing.T) {
	tr := trace.New(trace.Options{Proc: "serve-test"})
	_, ts := newTestServer(t, Config{Tracer: tr})
	hi := int64(1)
	status, body := postTraced(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusOK {
		t.Fatalf("check: %d %s", status, body)
	}
	spans := tr.TraceSpans(clientTraceID)
	if len(spans) == 0 {
		t.Fatalf("no spans recorded for the incoming trace; ring: %+v", tr.Snapshot())
	}
	byName := spansByName(spans)
	roots := byName["serve.request"]
	if len(roots) != 1 {
		t.Fatalf("want 1 serve.request span, got %+v", byName)
	}
	root := roots[0]
	if root.Parent != clientSpanID {
		t.Errorf("serve.request parent = %q, want incoming span %q", root.Parent, clientSpanID)
	}
	if root.Attrs["endpoint"] != "/v1/check" || root.Attrs["code"] != "200" {
		t.Errorf("serve.request attrs = %v", root.Attrs)
	}
	lookups := byName["serve.cache.lookup"]
	if len(lookups) != 1 || lookups[0].Attrs["outcome"] != "miss" || lookups[0].Parent != root.SpanID {
		t.Errorf("cache lookup spans = %+v", lookups)
	}
	computes := byName["serve.compute"]
	if len(computes) != 1 || computes[0].Parent != root.SpanID || computes[0].Attrs["op"] != "check" {
		t.Errorf("compute spans = %+v", computes)
	}
	// The reach engine posts reach.* stage events; the adapter must have
	// turned at least one into a span under the root.
	stages := 0
	for name, ds := range byName {
		if len(name) > 6 && name[:6] == "reach." {
			stages += len(ds)
			for _, d := range ds {
				if d.Parent != root.SpanID {
					t.Errorf("stage span %s parent = %q, want root %q", name, d.Parent, root.SpanID)
				}
			}
		}
	}
	if stages == 0 {
		t.Errorf("no engine stage spans recorded; got %+v", byName)
	}

	// A repeat of the same request is a cache hit — same trace, new root,
	// and the lookup span says so.
	if status, body := postTraced(t, ts.URL+"/v1/check", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}); status != http.StatusOK {
		t.Fatalf("cached check: %d %s", status, body)
	}
	var hit bool
	for _, d := range tr.TraceSpans(clientTraceID) {
		if d.Name == "serve.cache.lookup" && d.Attrs["outcome"] == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Error("second request recorded no hit-outcome cache lookup span")
	}
}

// TestTraceLocalJob: a local job is one grid check. Its trace holds one
// reach.grid span, parented under serve.job, and no serve.rect span; its
// status reports the grid as one rectangle — rects_done 0 while queued, 1
// once done — and so does the pre-completed job a later identical
// submission gets from the cache.
func TestTraceLocalJob(t *testing.T) {
	tr := trace.New(trace.Options{Proc: "serve-test"})
	s, ts := newTestServer(t, Config{Tracer: tr})
	// Hold the job's goroutine just before it runs, so it is observably
	// unfinished.
	release := make(chan struct{})
	s.testComputed = func(string) { <-release }
	hi := int64(3)
	req := CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi}
	status, body := postTraced(t, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if st := s.jobs.status(s.jobs.get(js.ID)); st.State != jobQueued || st.Rects != 1 || st.RectsDone != 0 {
		t.Fatalf("unfinished local job: %+v", st)
	}
	close(release)
	if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone || final.Rects != 1 || final.RectsDone != 1 {
		t.Fatalf("finished local job: %+v", final)
	}

	byName := spansByName(tr.TraceSpans(clientTraceID))
	if n := len(byName["serve.rect"]); n != 0 {
		t.Errorf("local job recorded %d serve.rect spans, want none", n)
	}
	jobs, grids := byName["serve.job"], byName["reach.grid"]
	if len(jobs) != 1 || len(grids) != 1 || grids[0].Parent != jobs[0].SpanID {
		t.Fatalf("want one reach.grid span under the one serve.job span; got serve.job %+v, reach.grid %+v", jobs, grids)
	}

	// Drop the done job's table entry: the next identical submission gets a
	// pre-completed job from the response cache, one rectangle, done.
	if status, body := del(t, ts.URL+"/v1/jobs/"+js.ID); status != http.StatusOK {
		t.Fatalf("delete done job: %d %s", status, body)
	}
	status, body = postTraced(t, ts.URL+"/v1/jobs", req)
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted || js.State != jobDone || js.Rects != 1 || js.RectsDone != 1 {
		t.Fatalf("cached pre-completed job: %d %+v", status, js)
	}
}

// TestTraceDistE2E is the acceptance scenario: one grid job submitted via
// /v1/jobs on a server in dist mode, computed by a real dist.Worker in a
// separate tracer (a stand-in for a separate process), produces ONE trace id
// whose spans — on the server's tracer, which the coordinator shares —
// include the serve root, the job span, the coordinator's dist.job/lease/
// merge spans, and the worker's shipped dist.rect spans, all correctly
// parent-linked. The worker's own ring holds httpx.attempt client spans in
// the same trace.
func TestTraceDistE2E(t *testing.T) {
	serverTr := trace.New(trace.Options{Proc: "crnserve"})
	workerTr := trace.New(trace.Options{Proc: "crncheck-worker"})
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		DistCoordinator: addr,
		LeaseTTL:        5 * time.Second,
		Tracer:          serverTr,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		w := &dist.Worker{
			Coordinator: addr,
			Name:        "trace-worker",
			Workers:     1,
			Resolve:     core.Resolve,
			JoinTimeout: 30 * time.Second,
			LongPoll:    200 * time.Millisecond,
			Tracer:      workerTr,
		}
		workerDone <- w.Run(ctx)
	}()

	hi := int64(2)
	status, body := postTraced(t, ts.URL+"/v1/jobs", CheckRequest{CRN: minCRNText, Func: "min", Hi: &hi})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	// hi 2: 9 points, fewer than dist.DefaultShards, so one rectangle each.
	const rects = 9
	if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone || final.Rects != rects || final.RectsDone != rects {
		t.Fatalf("dist job: %+v", final)
	}
	select {
	case err := <-workerDone:
		if err != nil && ctx.Err() == nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not observe job completion")
	}

	spans := serverTr.TraceSpans(clientTraceID)
	byName := spansByName(spans)
	for _, want := range []string{"serve.request", "serve.job", "serve.job.admission", "dist.job", "dist.lease", "dist.rect", "dist.merge"} {
		if len(byName[want]) == 0 {
			names := make(map[string]int)
			for n, ds := range byName {
				names[n] = len(ds)
			}
			t.Fatalf("trace %s has no %q span; spans by name: %v", clientTraceID, want, names)
		}
	}
	root := byName["serve.request"][0]
	job := byName["serve.job"][0]
	distJob := byName["dist.job"][0]
	if job.Parent != root.SpanID {
		t.Errorf("serve.job parent = %q, want serve.request %q", job.Parent, root.SpanID)
	}
	if distJob.Parent != job.SpanID {
		t.Errorf("dist.job parent = %q, want serve.job %q", distJob.Parent, job.SpanID)
	}
	leaseIDs := make(map[string]bool)
	for _, d := range byName["dist.lease"] {
		if d.Parent != distJob.SpanID {
			t.Errorf("dist.lease parent = %q, want dist.job %q", d.Parent, distJob.SpanID)
		}
		leaseIDs[d.SpanID] = true
	}
	if got := len(byName["dist.rect"]); got != rects {
		t.Errorf("want %d shipped dist.rect spans (one per rectangle), got %d", rects, got)
	}
	for _, d := range byName["dist.rect"] {
		if !leaseIDs[d.Parent] {
			t.Errorf("dist.rect parent %q is not a dist.lease span (%v)", d.Parent, leaseIDs)
		}
		if d.Proc != "crncheck-worker" {
			t.Errorf("shipped dist.rect proc = %q, want the worker's", d.Proc)
		}
	}
	if d := byName["dist.merge"][0]; d.Parent != distJob.SpanID {
		t.Errorf("dist.merge parent = %q, want dist.job %q", d.Parent, distJob.SpanID)
	}

	// The worker's own ring: its rectangle spans and the httpx client
	// attempt spans for renew/result calls, all in the same trace.
	workerSpans := workerTr.TraceSpans(clientTraceID)
	wByName := spansByName(workerSpans)
	if len(wByName["dist.rect"]) == 0 {
		t.Fatalf("worker ring has no dist.rect span: %+v", wByName)
	}
	if len(wByName["httpx.attempt"]) == 0 {
		t.Errorf("worker ring has no httpx.attempt spans in the job trace: %+v", wByName)
	}

	// The whole cross-process span set exports in the format
	// /debug/traces serves.
	if _, err := trace.ExportChromeTrace(spans); err != nil {
		t.Fatalf("ExportChromeTrace: %v", err)
	}
}
