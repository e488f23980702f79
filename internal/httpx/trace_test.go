package httpx

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/trace"
)

// counterRand gives the tracer deterministic, distinct IDs.
func counterRand() func() uint64 {
	var n uint64
	return func() uint64 { n++; return n }
}

// at is a fixed instant for span timestamps in these tests.
func at(ms int64) time.Time {
	return time.Unix(0, ms*int64(time.Millisecond))
}

func sprintfFor(t *testing.T, format string, args ...any) string {
	t.Helper()
	return fmt.Sprintf(format, args...)
}

func TestTraceparentPropagationAndAttemptSpans(t *testing.T) {
	var calls atomic.Int64
	var gotParents []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotParents = append(gotParents, r.Header.Get("traceparent"))
		if calls.Add(1) < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	tr := trace.New(trace.Options{Proc: "test", Rand: counterRand()})
	root := trace.NewSeam(tr, nil, nil).Start(at(0), "root", trace.SpanContext{})

	var logs []string
	c := &Client{
		MaxAttempts: 5,
		BaseDelay:   1,
		MaxDelay:    1,
		Seam:        trace.NewSeam(tr, nil, func(format string, args ...any) { logs = append(logs, sprintfFor(t, format, args...)) }),
	}
	ctx := trace.ContextWith(context.Background(), root.Context())
	var out struct{}
	if err := c.PostJSON(ctx, srv.URL, struct{}{}, &out); err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	root.End(at(10), "ok")

	if len(gotParents) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(gotParents))
	}
	rootID := root.Context().TraceID.String()
	seen := map[string]bool{}
	for i, tp := range gotParents {
		sc, err := trace.ParseTraceparent(tp)
		if err != nil {
			t.Fatalf("attempt %d sent bad traceparent %q: %v", i, tp, err)
		}
		if got := sc.TraceID.String(); got != rootID {
			t.Errorf("attempt %d traceparent trace id = %s, want %s", i, got, rootID)
		}
		if seen[sc.SpanID.String()] {
			t.Errorf("attempt %d reused span id %s", i, sc.SpanID)
		}
		seen[sc.SpanID.String()] = true
	}

	spans := tr.TraceSpans(rootID)
	var attempts []trace.SpanData
	for _, d := range spans {
		if d.Name == "httpx.attempt" {
			attempts = append(attempts, d)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("recorded %d httpx.attempt spans, want 3: %+v", len(attempts), spans)
	}
	rootSpanID := root.Context().SpanID.String()
	wantOutcome := []string{"retryable", "retryable", "ok"}
	for i, d := range attempts {
		if d.Parent != rootSpanID {
			t.Errorf("attempt span %d parent = %s, want root %s", i, d.Parent, rootSpanID)
		}
		if got := d.Attrs["outcome"]; got != wantOutcome[i] {
			t.Errorf("attempt span %d outcome = %q, want %q", i, got, wantOutcome[i])
		}
	}
	if got := attempts[0].Attrs["status"]; got != "503" {
		t.Errorf("failed attempt status attr = %q, want 503", got)
	}

	// Satellite: the retry log lines carry the active trace id.
	if len(logs) != 2 {
		t.Fatalf("got %d log lines, want 2 retries: %v", len(logs), logs)
	}
	for _, line := range logs {
		if !strings.Contains(line, "trace="+rootID) {
			t.Errorf("retry log line missing trace tag: %q", line)
		}
	}
}

func TestGiveUpLogCarriesTraceID(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	tr := trace.New(trace.Options{Proc: "test", Rand: counterRand()})
	root := trace.NewSeam(tr, nil, nil).Start(at(0), "root", trace.SpanContext{})
	var logs []string
	c := &Client{
		MaxAttempts: 2,
		BaseDelay:   1,
		MaxDelay:    1,
		Seam:        trace.NewSeam(tr, nil, func(format string, args ...any) { logs = append(logs, sprintfFor(t, format, args...)) }),
	}
	err := c.GetJSON(trace.ContextWith(context.Background(), root.Context()), srv.URL, nil)
	if err == nil {
		t.Fatal("want give-up error")
	}
	var giveUp string
	for _, line := range logs {
		if strings.Contains(line, "giving up") {
			giveUp = line
		}
	}
	if giveUp == "" {
		t.Fatalf("no give-up line in %v", logs)
	}
	if want := "trace=" + root.Context().TraceID.String(); !strings.Contains(giveUp, want) {
		t.Errorf("give-up line %q missing %q", giveUp, want)
	}
}

// TestNoTracerStillPropagates pins the header contract for untraced
// clients: a context span still reaches the server verbatim.
func TestNoTracerStillPropagates(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("traceparent")
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	tr := trace.New(trace.Options{Proc: "test", Rand: counterRand()})
	root := trace.NewSeam(tr, nil, nil).Start(at(0), "root", trace.SpanContext{})
	c := &Client{MaxAttempts: 1}
	var out struct{}
	if err := c.GetJSON(trace.ContextWith(context.Background(), root.Context()), srv.URL, &out); err != nil {
		t.Fatalf("GetJSON: %v", err)
	}
	if want := root.Context().Traceparent(); got != want {
		t.Errorf("server saw traceparent %q, want %q", got, want)
	}
}
