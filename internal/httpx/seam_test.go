package httpx

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

func TestMetricsAndGiveUpLog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	var logs []string
	c := &Client{
		MaxAttempts: 3,
		BaseDelay:   1,
		MaxDelay:    1,
		Rand:        func(n int64) int64 { return 0 },
		Seam:        trace.NewSeam(nil, reg, func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }),
	}
	err := c.GetJSON(context.Background(), srv.URL, nil)
	if err == nil {
		t.Fatalf("expected failure")
	}
	if got := StatusCode(err); got != http.StatusInternalServerError {
		t.Fatalf("StatusCode(err) = %d, want 500", got)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, want := range []string{
		`crn_span_duration_seconds_count{name="httpx.attempt",outcome="retryable"} 3`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("missing %q in exposition:\n%s", want, exposition)
		}
	}

	// Two retry lines (attempts 1 and 2) and one give-up line, each
	// carrying the attempt's elapsed duration; the give-up line also
	// carries the final status code.
	if len(logs) != 3 {
		t.Fatalf("got %d log lines, want 3: %q", len(logs), logs)
	}
	for _, l := range logs[:2] {
		if !strings.Contains(l, "failed in ") || !strings.Contains(l, "retrying in") {
			t.Errorf("retry line missing elapsed duration: %q", l)
		}
	}
	giveUp := logs[2]
	if !strings.Contains(giveUp, "giving up after 3 attempts") ||
		!strings.Contains(giveUp, "status 500") ||
		!strings.Contains(giveUp, "last attempt took ") {
		t.Errorf("give-up line missing status/elapsed: %q", giveUp)
	}
}

func TestMetricsOutcomes(t *testing.T) {
	var n int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		switch {
		case strings.HasSuffix(r.URL.Path, "/bad"):
			http.Error(w, "no", http.StatusBadRequest)
		default:
			fmt.Fprint(w, "{}")
		}
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	c := &Client{MaxAttempts: 1, Seam: trace.NewSeam(nil, reg, nil)}
	if err := c.GetJSON(context.Background(), srv.URL+"/ok", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.GetJSON(context.Background(), srv.URL+"/bad", nil); err == nil {
		t.Fatal("expected 400 to fail")
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`crn_span_duration_seconds_count{name="httpx.attempt",outcome="ok"} 1`,
		`crn_span_duration_seconds_count{name="httpx.attempt",outcome="fatal"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), `outcome="retryable"`) {
		t.Errorf("a fatal rejection was counted as retryable:\n%s", b.String())
	}
}
