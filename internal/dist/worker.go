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
	// Poll is the base backoff delay for failed coordinator requests, and
	// the fallback sleep after a lease poll that came back empty without
	// being parked (default 50ms).
	Poll time.Duration
	// LongPoll is the lease long-poll window: /lease requests ask the
	// coordinator to park them up to this long when no rectangle is free
	// (answered early as soon as one frees up or the job finishes), instead
	// of the worker polling every Poll interval. Default 10s — comfortably
	// inside the HTTP client's 30s timeout; the coordinator additionally
	// clamps the window to its lease TTL. Negative disables long-polling.
	LongPoll time.Duration
	// JoinTimeout bounds the initial retry loop fetching the job, so a
	// worker started slightly before its coordinator still joins
	// (default 15s).
	JoinTimeout time.Duration
	// Grace bounds how long a joined worker keeps retrying an unreachable
	// coordinator — across lease polls and result posts — before giving up
	// with ErrCoordinatorLost (default 15s). Long enough to ride out a
	// coordinator checkpoint-restart.
	Grace time.Duration
	// AbortOnLeaseLoss makes the worker cancel the in-flight rectangle
	// check when a heartbeat renewal answers that the lease is gone, so a
	// fenced-out worker stops burning CPU on a rectangle another worker now
	// owns. Off by default: computing to completion and reporting a
	// duplicate is harmless (the coordinator is idempotent) and finishes
	// faster when the loss was a coordinator restart rather than a fence.
	AbortOnLeaseLoss bool
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
	poll := w.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	longPoll := w.LongPoll
	switch {
	case longPoll == 0:
		longPoll = 10 * time.Second
	case longPoll < 0:
		longPoll = 0
	}
	joinTimeout := w.JoinTimeout
	if joinTimeout <= 0 {
		joinTimeout = 15 * time.Second
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

	// Join: fetch the job, retrying transient failures for up to JoinTimeout
	// so worker/coordinator start order does not matter. A 4xx answer is the
	// coordinator (or whatever is listening there) rejecting the request
	// itself — retrying cannot help, so httpx fails it on the first attempt.
	joinC := &httpx.Client{
		HTTP:        client,
		MaxAttempts: -1,
		Budget:      joinTimeout,
		BaseDelay:   poll,
		MaxDelay:    time.Second,
		Seam:        seam,
	}
	var job JobSpec
	if err := joinC.GetJSON(ctx, base+"/job", &job); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var se *httpx.StatusError
		if errors.As(err, &se) && !httpx.Retryable(err) {
			return fmt.Errorf("dist: joining %s: coordinator rejected the request (not retrying): %w", base, err)
		}
		return fmt.Errorf("dist: joining %s: %w", base, err)
	}
	if job.Version != ProtocolVersion {
		return fmt.Errorf("dist: coordinator speaks protocol %d, this worker %d", job.Version, ProtocolVersion)
	}
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

	// Each /lease call retries transient failures briefly on its own; the
	// loop below tracks how long the coordinator has been continuously
	// unreachable and gives up with ErrCoordinatorLost only past Grace, so
	// a coordinator checkpoint-restart shorter than Grace is survived.
	leaseC := &httpx.Client{
		HTTP:        client,
		MaxAttempts: 3,
		BaseDelay:   poll,
		MaxDelay:    time.Second,
		Seam:        seam,
	}
	var downSince time.Time
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		polledAt := time.Now()
		var lr LeaseResponse
		if err := leaseC.PostJSON(ctx, base+"/lease", LeaseRequest{Worker: name, WaitMillis: longPoll.Milliseconds()}, &lr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var se *httpx.StatusError
			if errors.As(err, &se) && !httpx.Retryable(err) {
				return fmt.Errorf("dist: leasing from %s: %w", base, err)
			}
			if downSince.IsZero() {
				downSince = polledAt
				seam.Logf("worker %s: coordinator unreachable (%v); retrying for up to %s", name, err, grace)
			}
			if time.Since(downSince) >= grace {
				return fmt.Errorf("dist: worker %s: coordinator %s unreachable for %s (last error: %v): %w", name, base, grace, err, ErrCoordinatorLost)
			}
			sleepCtx(ctx, poll)
			continue
		}
		if !downSince.IsZero() {
			seam.Logf("worker %s: coordinator reachable again after %s", name, time.Since(downSince).Round(time.Millisecond))
			downSince = time.Time{}
		}
		switch {
		case lr.Done:
			seam.Logf("worker %s: job done", name)
			return nil
		case lr.Rect == nil:
			// An empty answer after a full long-poll window can be retried
			// immediately — the coordinator just parked us for the window.
			// One that came back early (long-poll off, or a coordinator that
			// ignored/clamped the window) falls back to interval polling so
			// the loop never runs hot.
			if time.Since(polledAt) < longPoll/2 || longPoll == 0 {
				sleepCtx(ctx, poll)
			}
			continue
		}
		rect := *lr.Rect
		if w.LeaseHook != nil {
			if err := w.LeaseHook(rect); err != nil {
				return err
			}
		}
		if err := w.checkRect(ctx, seam, client, base, name, grace, c, f, rect, lr, opts); err != nil {
			return err
		}
	}
}

// checkRect runs one leased rectangle with a heartbeat renewing the lease,
// then reports the result. A result that cannot be delivered within Grace is
// dropped: the lease expires and the rectangle is recomputed elsewhere.
func (w *Worker) checkRect(ctx context.Context, seam *trace.Seam, client *http.Client, base, name string, grace time.Duration, c *crn.CRN, f reach.Func, rect Rect, lr LeaseResponse, opts []reach.Option) error {
	ttl := time.Duration(lr.TTLMillis) * time.Millisecond
	// The lease response's traceparent stitches this rectangle into the
	// trace that submitted the job: the rectangle-compute span is a child of
	// the coordinator's lease span. An absent/garbled traceparent (old
	// coordinator, tracing off there) just starts a local trace.
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
	// rctx is what the engine runs under; with AbortOnLeaseLoss the
	// heartbeat cancels it when the coordinator says the lease is gone. It
	// also carries the rectangle span so the heartbeat's renew attempts
	// trace as its children.
	rctx, rcancel := trace.ContextWith(ctx, rectEv.Context()), context.CancelFunc(func() {})
	if w.AbortOnLeaseLoss {
		rctx, rcancel = context.WithCancel(rctx)
	}
	defer rcancel()
	stop := make(chan struct{})
	var hb sync.WaitGroup
	if ttl > 0 {
		hb.Add(1)
		// hbctx parents the renew attempts under the rectangle span without
		// inheriting rctx's AbortOnLeaseLoss cancelation: the renew that
		// discovers the loss must itself complete.
		hbctx := trace.ContextWith(ctx, rectEv.Context())
		go func() {
			defer hb.Done()
			renewC := &httpx.Client{
				HTTP:        client,
				MaxAttempts: 2,
				BaseDelay:   w.pollInterval(),
				MaxDelay:    max(ttl/3, time.Millisecond),
				Seam:        seam,
			}
			// Renew failures are expected during a coordinator restart, so
			// they must not kill the worker — but they must not be silent
			// either. Log the 1st, 2nd, 4th, 8th... consecutive failure so a
			// flapping coordinator produces a bounded, visible trail.
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
					err := renewC.PostJSON(hbctx, base+"/renew", RenewRequest{Worker: name, RectID: rect.ID}, &rr)
					switch {
					case err != nil:
						failures++
						if failures == nextLog {
							logf("worker %s: renewing lease on rect %d failing (%d consecutive): %v", name, rect.ID, failures, err)
							nextLog *= 2
						}
					case !rr.OK:
						if w.AbortOnLeaseLoss {
							logf("worker %s: lost lease on rect %d; aborting in-flight check", name, rect.ID)
							rcancel()
							return
						}
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
	if rctx.Err() != nil {
		// Fenced out with AbortOnLeaseLoss: the rectangle belongs to another
		// worker now, so abandon it and go lease the next one.
		rectEv.End(time.Now(), "fenced")
		logf("worker %s: abandoned rect %d after lease loss", name, rect.ID)
		return nil
	}
	rectEv.End(time.Now(), reach.Outcome(res, rerr), trace.Int("checked", int64(res.Checked)))

	req := ResultRequest{Worker: name, RectID: rect.ID}
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
	resultC := &httpx.Client{
		HTTP:        client,
		MaxAttempts: -1,
		Budget:      grace,
		BaseDelay:   w.pollInterval(),
		MaxDelay:    time.Second,
		Seam:        seam,
	}
	var ack ResultResponse
	if err := resultC.PostJSON(trace.ContextWith(ctx, rectEv.Context()), base+"/result", req, &ack); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		logf("worker %s: dropping result for rect %d (%v); lease will expire", name, rect.ID, err)
	}
	return nil
}

func (w *Worker) pollInterval() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 50 * time.Millisecond
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
