package httpx

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// noDelay removes real sleeps from retry tests.
func noDelay(int64) int64 { return 0 }

// TestSuccessFirstAttempt: a healthy server costs exactly one request.
func TestSuccessFirstAttempt(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := &Client{Rand: noDelay}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.GetJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 1 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

// TestRetriesTransient5xx: 5xx responses are retried until the server
// recovers, and the eventual success decodes normally.
func TestRetriesTransient5xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"n":7}`))
	}))
	defer ts.Close()
	c := &Client{MaxAttempts: 5, Rand: noDelay}
	var out struct {
		N int `json:"n"`
	}
	if err := c.PostJSON(context.Background(), ts.URL, map[string]int{"x": 1}, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 7 || hits.Load() != 3 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

// Test4xxFailsFast: a 4xx is the server rejecting the request itself —
// exactly one attempt, and the error carries the status and body for the
// caller to classify.
func Test4xxFailsFast(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such endpoint", http.StatusNotFound)
	}))
	defer ts.Close()
	c := &Client{MaxAttempts: 10, Rand: noDelay}
	err := c.GetJSON(context.Background(), ts.URL+"/nope", new(struct{}))
	if err == nil {
		t.Fatal("404 succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want *StatusError 404", err)
	}
	if Retryable(err) {
		t.Fatal("404 classified retryable")
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx was retried: %d attempts", hits.Load())
	}
}

// TestAttemptsExhausted: a dead address fails after exactly MaxAttempts,
// wrapping the last transport error.
func TestAttemptsExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens here anymore
	c := &Client{MaxAttempts: 3, Rand: noDelay}
	err := c.GetJSON(context.Background(), url, new(struct{}))
	if err == nil {
		t.Fatal("dead server succeeded")
	}
	if !Retryable(err) {
		// The wrapper must not hide the transient classification.
		t.Fatalf("exhausted-attempts error classified non-retryable: %v", err)
	}
}

// TestBudgetExhausted: with unlimited attempts, the wall-clock budget ends
// the call; the error names the budget.
func TestBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := &Client{
		MaxAttempts: -1,
		Budget:      100 * time.Millisecond,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Rand:        func(n int64) int64 { return n - 1 }, // full delay every time
	}
	start := time.Now()
	err := c.GetJSON(context.Background(), ts.URL, new(struct{}))
	if err == nil {
		t.Fatal("always-down server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget did not bound the call: %s", elapsed)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadGateway {
		t.Fatalf("budget error does not wrap the last failure: %v", err)
	}
}

// TestBudgetNotCutShort: a budgeted call against a server that is always
// down gives up no earlier than Budget. With 40ms delays and a 100ms
// budget, attempts run at about 0, 40 and 80ms; the next full backoff would
// end past the deadline, so it is cut to end there and one last attempt
// runs at the deadline before the call gives up.
func TestBudgetNotCutShort(t *testing.T) {
	var lastHit atomic.Int64 // UnixNano of the latest attempt
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastHit.Store(time.Now().UnixNano())
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	const budget = 100 * time.Millisecond
	c := &Client{
		MaxAttempts: -1,
		Budget:      budget,
		BaseDelay:   40 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Rand:        func(n int64) int64 { return n - 1 }, // full delay every time
	}
	start := time.Now()
	err := c.GetJSON(context.Background(), ts.URL, new(struct{}))
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the last 503 wrapped", err)
	}
	if elapsed := time.Since(start); elapsed < budget {
		t.Fatalf("gave up after %s, before the %s budget", elapsed, budget)
	}
	if at := time.Duration(lastHit.Load() - start.UnixNano()); at < budget {
		t.Fatalf("last attempt at %s, want one at the %s deadline", at, budget)
	}
}

// TestContextCancelDuringRetries: canceling the context ends the loop
// immediately with a context error.
func TestContextCancelDuringRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	c := &Client{MaxAttempts: -1, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond}
	err := c.GetJSON(ctx, ts.URL, new(struct{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAttemptTimeoutIsRetryable: a hung attempt costs one attempt, not the
// call — the HTTP client's timeout fires, the next attempt succeeds.
func TestAttemptTimeoutIsRetryable(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			select { // hang the first attempt until the test ends
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := &Client{HTTP: &http.Client{Timeout: 50 * time.Millisecond}, MaxAttempts: 3, Rand: noDelay}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.GetJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 2 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

// TestTruncatedBodyRetryable: a 2xx whose body does not decode is treated
// as a transport failure and retried.
func TestTruncatedBodyRetryable(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			_, _ = w.Write([]byte(`{"ok": tr`)) // cut mid-token
			return
		}
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := &Client{MaxAttempts: 3, Rand: noDelay}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.GetJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 2 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

// TestBackoffFullJitter: delays are uniform in [0, min(MaxDelay,
// Base·2^n)) — pin the cap sequence with a max-drawing Rand.
func TestBackoffFullJitter(t *testing.T) {
	c := &Client{
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  80 * time.Millisecond,
		Rand:      func(n int64) int64 { return n - 1 },
	}
	want := []time.Duration{
		10*time.Millisecond - 1, // attempt 0: cap = base
		20*time.Millisecond - 1,
		40*time.Millisecond - 1,
		80*time.Millisecond - 1, // clamped to MaxDelay
		80*time.Millisecond - 1, // stays clamped
	}
	for i, w := range want {
		if got := c.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %s, want %s", i, got, w)
		}
	}
	// Huge attempt numbers must not overflow the shift.
	if got := c.backoff(500); got != 80*time.Millisecond-1 {
		t.Fatalf("backoff(500) = %s", got)
	}
}

// TestRawCapturesVerbatim: the Raw sink returns the exact body bytes and
// headers — no JSON decoding — and still rides the retry loop (first
// attempt 500, second succeeds).
func TestRawCapturesVerbatim(t *testing.T) {
	body := "{\n  \"pretty\": true\n}\n" // whitespace must survive untouched
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Cache", "hit")
		_, _ = w.Write([]byte(body))
	}))
	defer ts.Close()
	c := &Client{Rand: noDelay}
	raw, err := c.PostRaw(context.Background(), ts.URL, map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw.Body) != body {
		t.Fatalf("body %q, want %q", raw.Body, body)
	}
	if got := raw.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache %q, want %q", got, "hit")
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2 (one retried 500)", hits.Load())
	}
}

// TestRawStatusError: a non-2xx still surfaces as a StatusError, not a
// Raw capture.
func TestRawStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer ts.Close()
	c := &Client{Rand: noDelay}
	var raw Raw
	err := c.GetJSON(context.Background(), ts.URL, &raw)
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
}
