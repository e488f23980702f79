package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/httpx"
	"crncompose/internal/parse"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// ErrCoordinatorLost is returned by Worker.Run when a coordinator that the
// worker successfully joined stays unreachable past the worker's Grace
// window. It is distinct from a clean finish (nil, the coordinator answered
// Done) so callers like crncheck -join can exit non-zero and report which
// case happened. Test with errors.Is.
var ErrCoordinatorLost = errors.New("dist: coordinator lost")

// longPoll is the lease long-poll window: /lease requests ask the
// coordinator to park them up to this long when no rectangle is free
// (answered early as soon as one frees up or the job finishes), instead of
// the worker polling. It sits comfortably inside the HTTP client's 30s
// timeout; the coordinator additionally clamps it to its lease TTL.
const longPoll = 10 * time.Second

// Worker joins a coordinator, leases rectangles, checks each one locally
// (reach.CheckGridCtx on the rectangle's bounds), and reports results. Any
// number of workers may join and leave at any time; a worker that dies
// mid-rectangle just lets its lease expire.
//
// All coordinator traffic goes through httpx: transient failures (transport
// errors, 5xx, dropped responses) are retried with jittered exponential
// backoff, while HTTP-status rejections (4xx — wrong endpoint, protocol
// mismatch) fail fast.
type Worker struct {
	// Coordinator is the coordinator's base URL (host:port or http://...).
	Coordinator string
	// Name identifies the worker in leases and logs (default host-pid).
	Name string
	// Workers is how many of a rectangle's inputs are checked at once
	// (reach.WithWorkers semantics: 0 = all CPUs, 1 = sequential).
	Workers int
	// Resolve maps the job's function name to an evaluator. Required: the
	// coordinator ships only the name, never code.
	Resolve func(name string) (reach.Func, error)
	// Grace bounds how long each join, lease and result call keeps
	// retrying a coordinator it cannot reach (default 15s): long enough to
	// ride out a coordinator checkpoint-restart, or to join a coordinator
	// started after the worker. A join that runs out of Grace fails with a
	// plain error, a lease with ErrCoordinatorLost; an undelivered result is
	// dropped and its lease expires.
	Grace time.Duration
	// Client, when non-nil, overrides the HTTP client.
	Client *http.Client
	// Logf, when non-nil, receives progress lines, the coordinator
	// client's retry and give-up lines among them.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records a dist.rect span per leased rectangle
	// — parented under the coordinator's lease span via the traceparent
	// carried in the lease response, so the rectangle joins the submitting
	// request's trace — plus per-attempt httpx client spans for renew and
	// result calls. The rectangle trace's spans are shipped to the
	// coordinator with the result report. Tracer and Logf make the
	// worker's trace.Seam, which its coordinator clients share.
	Tracer *trace.Tracer

	// LeaseHook, when non-nil, runs right after a lease is granted; a
	// non-nil error kills the worker mid-rectangle without reporting — how
	// tests (dist's and serve's) simulate a crashed worker.
	LeaseHook func(Rect) error
}

// Run joins the coordinator and processes rectangles until the job is done
// (returns nil), ctx is canceled, or the job cannot be joined or understood.
// A coordinator that stays unreachable past Grace after a successful join
// ends the run with an error wrapping ErrCoordinatorLost.
func (w *Worker) Run(ctx context.Context) error {
	client := w.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	base := strings.TrimSuffix(w.Coordinator, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	grace := w.Grace
	if grace <= 0 {
		grace = 15 * time.Second
	}
	name := w.Name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	seam := trace.NewSeam(w.Tracer, nil, w.Logf)

	// One client serves join, lease and result: each call retries transient
	// failures for up to Grace, so worker/coordinator start order does not
	// matter and a coordinator checkpoint-restart shorter than Grace is
	// survived. A 4xx answer is the coordinator (or whatever is listening
	// there) rejecting the request itself — retrying cannot help, so httpx
	// fails it on the first attempt.
	coord := &httpx.Client{
		HTTP:        client,
		MaxAttempts: -1,
		Budget:      grace,
		MaxDelay:    time.Second,
		Seam:        seam,
	}
	var job JobSpec
	if err := coord.GetJSON(ctx, base+"/job", &job); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !httpx.Retryable(err) {
			return fmt.Errorf("dist: joining %s: coordinator rejected the request (not retrying): %w", base, err)
		}
		return fmt.Errorf("dist: joining %s: %w", base, err)
	}
	if job.Version != ProtocolVersion {
		return fmt.Errorf("dist: coordinator speaks protocol %d, this worker %d", job.Version, ProtocolVersion)
	}
	sum := jobSum(job) // names the job in every later request
	c, err := parse.Parse(job.CRN)
	if err != nil {
		return fmt.Errorf("dist: parsing job CRN: %w", err)
	}
	f, err := w.Resolve(job.Func)
	if err != nil {
		return fmt.Errorf("dist: resolving %q: %w", job.Func, err)
	}
	opts := []reach.Option{
		reach.WithMaxConfigs(job.MaxConfigs),
		reach.WithMaxCount(job.MaxCount),
		reach.WithWorkers(w.Workers),
	}
	seam.Logf("worker %s: joined %s (%s on %d rects)", name, base, job.Func, job.Rects)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		polledAt := time.Now()
		var lr LeaseResponse
		if err := coord.PostJSON(ctx, base+"/lease", LeaseRequest{Worker: name, Job: sum, WaitMillis: longPoll.Milliseconds()}, &lr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !httpx.Retryable(err) { // a 4xx, such as 409: the address now serves another job
				return fmt.Errorf("dist: leasing from %s: %w", base, err)
			}
			return fmt.Errorf("dist: worker %s: coordinator %s unreachable for %s (last error: %v): %w", name, base, grace, err, ErrCoordinatorLost)
		}
		switch {
		case lr.Done:
			seam.Logf("worker %s: job done", name)
			return nil
		case lr.Rect == nil:
			// An empty answer after a full long-poll window can be retried
			// immediately — the coordinator just parked us for the window.
			// One that came back early (a coordinator that clamped the
			// window to a short TTL) sleeps the base delay first, so the
			// loop never runs hot.
			if time.Since(polledAt) < longPoll/2 {
				sleepCtx(ctx, httpx.DefaultBaseDelay)
			}
			continue
		}
		rect := *lr.Rect
		if w.LeaseHook != nil {
			if err := w.LeaseHook(rect); err != nil {
				return err
			}
		}
		if err := w.checkRect(ctx, seam, coord, base, name, sum, c, f, rect, lr, opts); err != nil {
			return err
		}
	}
}

// checkRect runs one leased rectangle with a heartbeat renewing the lease,
// then reports the result through coord, Run's coordinator client; every
// request names job. A result that cannot be delivered within Grace, or
// that the coordinator rejects, is dropped: the lease expires and the
// rectangle is recomputed elsewhere. A renew the coordinator rejects with a
// 4xx (409: the address now serves another job) abandons the rectangle at
// once, posts nothing, and returns the rejection, which ends Run.
func (w *Worker) checkRect(ctx context.Context, seam *trace.Seam, coord *httpx.Client, base, name, job string, c *crn.CRN, f reach.Func, rect Rect, lr LeaseResponse, opts []reach.Option) error {
	ttl := time.Duration(lr.TTLMillis) * time.Millisecond
	// The lease response's traceparent stitches this rectangle into the
	// trace that submitted the job: the rectangle-compute span is a child of
	// the coordinator's lease span. An absent (tracing off at the
	// coordinator) or malformed traceparent just starts a local trace.
	var leaseSC trace.SpanContext
	if lr.Traceparent != "" {
		leaseSC, _ = trace.ParseTraceparent(lr.Traceparent)
	}
	rectEv := seam.Start(time.Now(), "dist.rect", leaseSC,
		trace.Int("rect", int64(rect.ID)),
		trace.String("worker", name))
	// Every rectangle-scoped log line carries the trace and span ids, so a
	// worker's interleaved output greps apart by rectangle and joins against
	// /debug/traces on the coordinator.
	logf := rectEv.Logf
	// rctx carries the rectangle span, so the heartbeat's renew attempts
	// and the result post trace as its children. The heartbeat cancels it,
	// with the rejection as its cause, when the coordinator answers a renew
	// with a 4xx: the address no longer serves this job, so the rectangle's
	// result has nowhere to go.
	rctx, reject := context.WithCancelCause(trace.ContextWith(ctx, rectEv.Context()))
	defer reject(nil)
	stop := make(chan struct{})
	var hb sync.WaitGroup
	if ttl > 0 {
		hb.Add(1)
		go func() {
			defer hb.Done()
			// A renew never outlasts a heartbeat: two attempts, backing
			// off at most TTL/3.
			renewC := &httpx.Client{
				HTTP:        coord.HTTP,
				MaxAttempts: 2,
				MaxDelay:    max(ttl/3, time.Millisecond),
				Seam:        seam,
			}
			// Transient renew failures are expected during a coordinator
			// restart, so they must not kill the worker — but they must not
			// be silent either. Log the 1st, 2nd, 4th, 8th... consecutive
			// failure so a flapping coordinator produces a bounded, visible
			// trail.
			failures, nextLog := 0, 1
			t := time.NewTicker(max(ttl/3, time.Millisecond))
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				case <-t.C:
					var rr RenewResponse
					err := renewC.PostJSON(rctx, base+"/renew", RenewRequest{Worker: name, Job: job, RectID: rect.ID}, &rr)
					switch {
					case err != nil && !httpx.Retryable(err): // a 4xx, such as 409: the address now serves another job
						reject(fmt.Errorf("dist: renewing rect %d at %s: %w", rect.ID, base, err))
						return
					case err != nil:
						failures++
						if failures == nextLog {
							logf("worker %s: renewing lease on rect %d failing (%d consecutive): %v", name, rect.ID, failures, err)
							nextLog *= 2
						}
					case !rr.OK:
						logf("worker %s: lost lease on rect %d (still computing; duplicate result is harmless)", name, rect.ID)
						failures, nextLog = 0, 1
					default:
						if failures > 0 {
							logf("worker %s: lease renewal on rect %d recovered after %d failures", name, rect.ID, failures)
						}
						failures, nextLog = 0, 1
					}
				}
			}
		}()
	}
	logf("worker %s: checking rect %d %v..%v", name, rect.ID, rect.Lo, rect.Hi)
	res, rerr := reach.CheckGridCtx(rctx, c, f, rect.Lo, rect.Hi, opts...)
	close(stop)
	hb.Wait()

	// A canceled worker abandons the rectangle without reporting: the engine
	// returned no verdicts, the heartbeat above has stopped, and the lease
	// simply expires so the coordinator reassigns the rectangle elsewhere.
	if ctx.Err() != nil {
		rectEv.End(time.Now(), "canceled")
		return ctx.Err()
	}
	// A rejected renew abandons the rectangle the same way, and ends the run
	// as a rejected lease does.
	if err := context.Cause(rctx); err != nil {
		rectEv.End(time.Now(), "canceled")
		return err
	}
	rectEv.End(time.Now(), reach.Outcome(res, rerr), trace.Int("checked", int64(res.Checked)))

	req := ResultRequest{Worker: name, Job: job, RectID: rect.ID}
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("dist: encoding rect %d result: %w", rect.ID, err)
	}
	req.Result = raw
	if rerr != nil {
		req.Err = rerr.Error()
	}
	// Ship this rectangle's finished spans (the dist.rect span and the renew
	// attempts under it) with the report — collected before the post, so the
	// result attempt spans themselves stay in the worker's own ring. Only the
	// rect span's own subtree ships: the trace also holds earlier rectangles'
	// spans (one job fans out many leases to one worker), and re-shipping
	// those would duplicate them in the coordinator's ring.
	if w.Tracer != nil {
		spans := spanSubtree(
			w.Tracer.TraceSpans(rectEv.Context().TraceID.String()),
			rectEv.Context().SpanID.String())
		if len(spans) > maxShippedSpans {
			spans = spans[len(spans)-maxShippedSpans:]
		}
		req.Spans = spans
	}
	// The coordinator accepts duplicate and stale reports idempotently, so
	// the post may be retried freely — including after a dropped-response
	// fault where the coordinator committed the result but the worker never
	// saw the ack.
	var ack ResultResponse
	if err := coord.PostJSON(rctx, base+"/result", req, &ack); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		logf("worker %s: dropping result for rect %d (%v); lease will expire", name, rect.ID, err)
	}
	return nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// spanSubtree filters spans down to root and its descendants (by
// parent-span-id links). Fixpoint iteration because a child span ends — and
// is recorded — before its parent, so record order is not topological.
func spanSubtree(spans []trace.SpanData, root string) []trace.SpanData {
	in := map[string]bool{root: true}
	for grew := true; grew; {
		grew = false
		for _, d := range spans {
			if !in[d.SpanID] && in[d.Parent] {
				in[d.SpanID] = true
				grew = true
			}
		}
	}
	var out []trace.SpanData
	for _, d := range spans {
		if in[d.SpanID] {
			out = append(out, d)
		}
	}
	return out
}
