package faultnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crncompose/internal/httpx"
)

// TestScheduleDeterministic: At is a pure function of (Seed, i) — same seed
// same sequence, different seed a different one, and every configured fault
// kind shows up at the configured rough rate.
func TestScheduleDeterministic(t *testing.T) {
	s := Schedule{Seed: 42, PRefuse: 0.1, PTimeout: 0.1, PServerError: 0.1, PSlow: 0.1, PDrop: 0.1}
	const n = 20_000
	var counts [int(numFaults)]int
	for i := int64(0); i < n; i++ {
		f := s.At(i)
		counts[f]++
		if f != s.At(i) {
			t.Fatalf("At(%d) not deterministic", i)
		}
	}
	// ~10% each, half the requests pass. Loose bounds — this is a sanity
	// check on the mixer, not a statistics test.
	for f := FaultRefuse; f <= FaultDrop; f++ {
		if c := counts[f]; c < n/20 || c > n/5 {
			t.Errorf("fault %s: %d of %d draws (want ≈%d)", f, c, n, n/10)
		}
	}
	if counts[FaultNone] < n/3 {
		t.Errorf("pass-through %d of %d draws", counts[FaultNone], n)
	}
	diff := 0
	other := Schedule{Seed: 43, PRefuse: 0.1, PTimeout: 0.1, PServerError: 0.1, PSlow: 0.1, PDrop: 0.1}
	for i := int64(0); i < 1000; i++ {
		if s.At(i) != other.At(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// faultFor builds a schedule injecting exactly one fault kind with
// certainty on every request until the cap.
func faultFor(f Fault, maxFaults int64) Schedule {
	s := Schedule{Seed: 1, Latency: 30 * time.Millisecond, MaxFaults: maxFaults}
	switch f {
	case FaultRefuse:
		s.PRefuse = 1
	case FaultTimeout:
		s.PTimeout = 1
	case FaultServerError:
		s.PServerError = 1
	case FaultSlow:
		s.PSlow = 1
	case FaultDrop:
		s.PDrop = 1
	}
	return s
}

// TestTransportFaults pins each fault's client-visible behavior and — the
// part that matters for idempotence testing — whether the server committed.
func TestTransportFaults(t *testing.T) {
	var commits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		commits.Add(1)
		_, _ = w.Write([]byte("ok"))
	}))
	defer ts.Close()

	do := func(tr *Transport) (*http.Response, error) {
		client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
		return client.Get(ts.URL)
	}

	t.Run("refuse", func(t *testing.T) {
		before := commits.Load()
		_, err := do(NewTransport(nil, faultFor(FaultRefuse, 1)))
		if !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("err = %v, want connection refused", err)
		}
		if commits.Load() != before {
			t.Fatal("refused request reached the server")
		}
	})
	t.Run("timeout", func(t *testing.T) {
		before := commits.Load()
		_, err := do(NewTransport(nil, faultFor(FaultTimeout, 1)))
		var ne net.Error
		if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want net.Error with Timeout()", err)
		}
		if commits.Load() != before {
			t.Fatal("timed-out request reached the server")
		}
	})
	t.Run("server-error", func(t *testing.T) {
		before := commits.Load()
		resp, err := do(NewTransport(nil, faultFor(FaultServerError, 1)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("status = %d, want 502", resp.StatusCode)
		}
		if commits.Load() != before {
			t.Fatal("injected 5xx reached the server")
		}
	})
	t.Run("slow", func(t *testing.T) {
		before := commits.Load()
		start := time.Now()
		resp, err := do(NewTransport(nil, faultFor(FaultSlow, 1)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "ok" || commits.Load() != before+1 {
			t.Fatalf("slow response corrupted: %q (commits %d→%d)", body, before, commits.Load())
		}
		if d := time.Since(start); d < 30*time.Millisecond {
			t.Fatalf("slow response not delayed: %s", d)
		}
	})
	t.Run("drop-after-commit", func(t *testing.T) {
		before := commits.Load()
		_, err := do(NewTransport(nil, faultFor(FaultDrop, 1)))
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
		if commits.Load() != before+1 {
			t.Fatalf("dropped request did not commit: %d → %d", before, commits.Load())
		}
	})
}

// TestMaxFaultsCap: after the cap, everything passes — the progress
// guarantee bounded retry budgets rely on.
func TestMaxFaultsCap(t *testing.T) {
	var commits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		commits.Add(1)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	tr := NewTransport(nil, faultFor(FaultRefuse, 3))
	client := &http.Client{Transport: tr}
	fails := 0
	for i := 0; i < 10; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			fails++
			continue
		}
		resp.Body.Close()
	}
	if fails != 3 || commits.Load() != 7 || tr.Injected() != 3 {
		t.Fatalf("fails=%d commits=%d injected=%d, want 3/7/3", fails, commits.Load(), tr.Injected())
	}
}

// TestTransportWithRetryClient: the intended pairing — an httpx retry
// client rides through a faulty transport and still lands the request,
// with every dropped response having committed server-side exactly once
// per delivery attempt.
func TestTransportWithRetryClient(t *testing.T) {
	var commits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		commits.Add(1)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	sched := Schedule{
		Seed:    7,
		PRefuse: 0.2, PTimeout: 0.1, PServerError: 0.2, PSlow: 0.1, PDrop: 0.2,
		Latency:   time.Millisecond,
		MaxFaults: 50,
	}
	tr := NewTransport(nil, sched)
	c := &httpx.Client{
		HTTP:        &http.Client{Transport: tr, Timeout: 5 * time.Second},
		MaxAttempts: -1,
		Budget:      30 * time.Second,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
	for i := 0; i < 30; i++ {
		var out struct {
			OK bool `json:"ok"`
		}
		if err := c.GetJSON(context.Background(), ts.URL, &out); err != nil || !out.OK {
			t.Fatalf("call %d: %v (out=%+v)", i, err, out)
		}
	}
	if tr.Injected() == 0 {
		t.Fatal("schedule injected nothing; test proves nothing")
	}
	t.Logf("injected=%d commits=%d", tr.Injected(), commits.Load())
}
