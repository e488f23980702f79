// Package httpx is the retry client every cross-process HTTP call in this
// module goes through (the dist worker's join/lease/renew/result calls). It
// exists so failure handling is in
// one place with one policy instead of per-call-site ad hoc loops:
//
//   - exponential backoff with full jitter between attempts (each delay is
//     drawn uniformly from [0, min(MaxDelay, BaseDelay·2^attempt)) — the
//     AWS "full jitter" scheme, which decorrelates retry storms from many
//     clients hitting one recovering server);
//   - a retry budget: MaxAttempts bounds the attempt count, Budget bounds
//     the total wall-clock time spent retrying, and the context bounds
//     everything — whichever trips first ends the call;
//   - per-attempt timeouts (the HTTP client's Timeout, 30s by default), so
//     one hung connection costs one attempt, not the whole budget;
//   - non-retryable classification: a 4xx response is the server saying
//     the request itself is wrong (unknown endpoint, protocol mismatch,
//     malformed body) — retrying it can only burn the budget, so the call
//     fails immediately with a *StatusError the caller can inspect. 5xx,
//     408, 429, transport errors, and truncated/undecodable response
//     bodies are transient by assumption and retried.
//
// Each attempt is one "httpx.attempt" event on the client's trace.Seam
// (Client.Seam): a span when the seam traces, an observation of
// crn_span_duration_seconds{name="httpx.attempt",outcome} when it has a
// registry, and retry/give-up log lines stamped with the attempt's trace
// and span ids.
//
// The zero value of Client is usable: it retries DefaultMaxAttempts times
// against a shared default http.Client.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"crncompose/internal/trace"
)

// Defaults for Client zero values.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// defaultHTTP is the shared transport used when Client.HTTP is nil. Its
// 30-second timeout caps each attempt; callers who need a tighter cap pass
// their own HTTP client.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// Client is a retrying JSON-over-HTTP client. The zero value works; fields
// tune the retry policy. Clients are cheap value types — copy one and tweak
// the copy to vary the policy per call site.
type Client struct {
	// HTTP performs each individual attempt (nil = a shared default client
	// with a 30s timeout).
	HTTP *http.Client
	// MaxAttempts bounds how many times the request is tried in total.
	// 0 means DefaultMaxAttempts; negative means unlimited — bounded only
	// by Budget and the context, one of which should then be finite.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the backoff: the delay before retry n is
	// uniform in [0, min(MaxDelay, BaseDelay·2^n)). Zero values pick
	// DefaultBaseDelay/DefaultMaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Budget, when positive, caps the total wall-clock time the call may
	// spend across attempts and backoff sleeps, measured from the first
	// attempt. The call never starts a sleep it cannot finish inside the
	// budget; the last transient error is returned wrapped.
	Budget time.Duration
	// Rand draws jitter: a uniform int64 in [0, n). Nil uses math/rand/v2.
	// Injectable so tests can pin backoff schedules.
	Rand func(n int64) int64
	// Seam, when non-nil, instruments every attempt as one
	// "httpx.attempt" event (method/url/attempt/status attributes; outcome
	// ok, retryable or fatal) parented under the span context carried by
	// the call's ctx, and stamps one log line per retried failure and one
	// when the call gives up (attempts or budget exhausted). Whether or
	// not it is set, an active context is propagated to the server as a
	// W3C traceparent header on every attempt — the link that stitches one
	// trace across processes.
	Seam *trace.Seam
}

// StatusError is a non-2xx HTTP response, carrying enough of the reply to
// classify and report it. Retryable responses (5xx, 408, 429) are retried
// by Client before one of these escapes; a StatusError returned to the
// caller therefore almost always means a client-side error the server
// rejected deliberately.
type StatusError struct {
	Method     string
	URL        string
	StatusCode int
	Status     string // e.g. "404 Not Found"
	Body       string // first bytes of the response body
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %s: %s", e.Method, e.URL, e.Status, e.Body)
}

// StatusCode returns the HTTP status carried by err (through any
// wrapping), or 0 when err holds no *StatusError — i.e. the failure
// never got a response: transport error, timeout, truncated body.
func StatusCode(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode
	}
	return 0
}

// Retryable reports whether err is worth retrying: transport errors,
// truncated bodies, and 5xx/408/429 responses are; any other HTTP status
// (the server understood the request and rejected it) is not. Context
// errors are handled by the retry loop itself, not classified here.
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode >= 500 ||
			se.StatusCode == http.StatusRequestTimeout ||
			se.StatusCode == http.StatusTooManyRequests
	}
	return true
}

// GetJSON fetches url and decodes the JSON response into out, retrying
// under the client's policy.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	return c.doJSON(ctx, http.MethodGet, url, nil, out)
}

// PostJSON posts in as JSON to url and decodes the JSON response into out,
// retrying under the client's policy. Note the request is re-sent on every
// retry: the server may have committed an attempt whose response was lost,
// so POSTed operations must be idempotent (the dist protocol's /result and
// /renew are by design).
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.doJSON(ctx, http.MethodPost, url, body, out)
}

// Raw captures a response verbatim when passed as the out argument of
// GetJSON/PostJSON (or via the PostRaw helper): the exact body
// bytes and the response headers, with no JSON decoding. It exists for
// the byte-identity consumers — callers that diff a served body against
// a locally computed one, or read cache markers like X-Cache — so that
// they too go through the retry/fault model instead of a bare
// *http.Client (the crnlint httpx analyzer enforces this).
type Raw struct {
	Body   []byte
	Header http.Header
}

// PostRaw posts in as JSON to url and returns the verbatim response,
// retrying under the client's policy (the PostJSON idempotency caveat
// applies).
func (c *Client) PostRaw(ctx context.Context, url string, in any) (Raw, error) {
	var r Raw
	err := c.PostJSON(ctx, url, in, &r)
	return r, err
}

// doJSON is the retry loop shared by GetJSON/PostJSON.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, out any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = defaultHTTP
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = DefaultMaxAttempts
	}
	var deadline time.Time
	if c.Budget > 0 {
		deadline = time.Now().Add(c.Budget)
	}
	// parent is the span context carried by the caller's ctx; it parents
	// each attempt's event, which sends its own context (parent's, when
	// untraced) as the traceparent and stamps the retry/give-up lines, so a
	// trace id in the logs can be looked up in /debug/traces.
	parent := trace.FromContext(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		attemptStart := time.Now()
		ev := c.Seam.Start(attemptStart, "httpx.attempt", parent,
			trace.String("method", method),
			trace.String("url", url),
			trace.Int("attempt", int64(attempt+1)))
		err := c.attempt(ctx, httpc, method, url, body, out, ev.Context())
		elapsed := time.Since(attemptStart)
		var status []trace.Attr
		if code := StatusCode(err); code != 0 {
			status = []trace.Attr{trace.Int("status", int64(code))}
		}
		ev.End(attemptStart.Add(elapsed), attemptOutcome(err), status...)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context ended (possibly mid-attempt); that ends
			// the call regardless of classification or remaining budget.
			return fmt.Errorf("httpx: %s %s: %w", method, url, ctx.Err())
		}
		if !Retryable(err) {
			return err
		}
		lastErr = err
		if maxAttempts > 0 && attempt+1 >= maxAttempts {
			ev.Logf("httpx: %s %s giving up after %d attempts (last attempt took %s, status %d): %v",
				method, url, attempt+1, elapsed, StatusCode(lastErr), lastErr)
			return fmt.Errorf("httpx: %s %s failed after %d attempts: %w", method, url, attempt+1, lastErr)
		}
		d := c.backoff(attempt)
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			ev.Logf("httpx: %s %s giving up, retry budget %s exhausted after %d attempts (last attempt took %s, status %d): %v",
				method, url, c.Budget, attempt+1, elapsed, StatusCode(lastErr), lastErr)
			return fmt.Errorf("httpx: %s %s: retry budget %s exhausted after %d attempts: %w", method, url, c.Budget, attempt+1, lastErr)
		}
		ev.Logf("httpx: %s %s attempt %d failed in %s: %v (retrying in %s)", method, url, attempt+1, elapsed, err, d)
		if !sleepCtx(ctx, d) {
			return fmt.Errorf("httpx: %s %s: %w", method, url, ctx.Err())
		}
	}
}

// attemptOutcome classifies one attempt: "ok", "retryable" (the loop will
// back off and try again unless the budget trips), or "fatal" (a
// non-retryable rejection).
func attemptOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case Retryable(err):
		return "retryable"
	}
	return "fatal"
}

// attempt performs one request/response cycle. A valid sc is sent as the
// W3C traceparent header so the server joins the caller's trace.
func (c *Client) attempt(ctx context.Context, httpc *http.Client, method, url string, body []byte, out any, sc trace.SpanContext) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{
			Method:     method,
			URL:        url,
			StatusCode: resp.StatusCode,
			Status:     resp.Status,
			Body:       strings.TrimSpace(string(msg)),
		}
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if r, ok := out.(*Raw); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			// Same classification as a garbled JSON body below: a 2xx whose
			// body cannot be read is a transport failure; retryable.
			return fmt.Errorf("reading %s %s response: %w", method, url, err)
		}
		r.Body = b
		r.Header = resp.Header.Clone()
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A truncated or garbled body on a 2xx response is a transport-layer
		// failure (the fault-injection layer's dropped-mid-body case lands
		// here); retryable.
		return fmt.Errorf("decoding %s %s response: %w", method, url, err)
	}
	return nil
}

// backoff returns the full-jitter delay before retry number attempt.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	maxD := c.MaxDelay
	if maxD <= 0 {
		maxD = DefaultMaxDelay
	}
	cap := maxD
	if attempt < 30 { // past 2^30·base everything clamps to maxD anyway
		if d := base << attempt; d < maxD {
			cap = d
		}
	}
	if cap <= 0 {
		return 0
	}
	draw := c.Rand
	if draw == nil {
		draw = rand.Int64N
	}
	return time.Duration(draw(int64(cap)))
}

// sleepCtx sleeps for d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
