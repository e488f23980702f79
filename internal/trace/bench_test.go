package trace

import (
	"testing"
	"time"

	"crncompose/internal/metrics"
)

// requestSpanPair is the serve cached-hit path's seam work: a
// serve.request event and its serve.cache.lookup child, started and ended
// at clock's instants.
func requestSpanPair(s *Seam, clock func() time.Time) {
	now := clock()
	root := s.Start(now, "serve.request", SpanContext{},
		String("endpoint", "/v1/check"), String("method", "POST"))
	child := s.Start(now, "serve.cache.lookup", root.Context())
	child.End(clock(), "hit")
	root.End(clock(), "ok", Int("code", 200))
}

func BenchmarkRequestSpanPair(b *testing.B) {
	s := NewSeam(New(Options{Proc: "bench"}), nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requestSpanPair(s, time.Now)
	}
}

// TestSeamAllocs pins what one request/lookup pair allocates. Traced, that
// is each event's attribute copy and Int's decimal string: the ring takes
// finished spans by value. Untraced with a registry, it is Int's decimal
// string alone: the crn_span_duration_seconds child lookups allocate
// nothing on a hit.
func TestSeamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clock := func() time.Time { return at(1) }
	for _, c := range []struct {
		name string
		s    *Seam
		max  float64
	}{
		{"traced", NewSeam(New(Options{Proc: "test"}), nil, nil), 3},
		{"untraced with a registry", NewSeam(nil, metrics.NewRegistry(), nil), 1},
	} {
		if got := testing.AllocsPerRun(200, func() { requestSpanPair(c.s, clock) }); got > c.max {
			t.Errorf("%s pair: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}
