package dist

import (
	"strings"
	"testing"
	"time"
)

// TestCoordinatorMetrics drives the lease table under the fake clock
// and checks every family the coordinator registers: the lease-table
// gauges track status transitions, fenced-out renewals hit their counter,
// and the dist.lease series of crn_span_duration_seconds count expired
// leases and observe lease-grant → result durations on the injected clock.
func TestCoordinatorMetrics(t *testing.T) {
	clock := newFakeClock(7)
	co := newTestCoordinator(t, clock, 3, "")
	met := co.met

	wantRects := func(step string, pending, leased, done int64) {
		t.Helper()
		if p, l, d := met.rectsPending.Value(), met.rectsLeased.Value(), met.rectsDone.Value(); p != pending || l != leased || d != done {
			t.Fatalf("%s: rects gauges pending=%d leased=%d done=%d, want %d/%d/%d",
				step, p, l, d, pending, leased, done)
		}
	}
	wantRects("initial", 3, 0, 0)

	la := co.lease("A")
	lb := co.lease("B")
	if la.Rect == nil || lb.Rect == nil {
		t.Fatalf("initial leases: %+v %+v", la, lb)
	}
	wantRects("two leased", 1, 2, 0)
	if g := met.leasesGranted.Value(); g != 2 {
		t.Fatalf("leases granted = %d, want 2", g)
	}

	// Everyone goes silent past the TTL: the sweep reclaims both
	// rectangles and the holders' next renews are fenced-out failures.
	clock.advance(11 * time.Second)
	co.sweepAll()
	wantRects("expired", 3, 0, 0)
	if co.renew("A", la.Rect.ID).OK {
		t.Fatal("A renewed an expired lease")
	}
	if rf := met.renewFailures.Value(); rf == 0 {
		t.Fatal("fenced-out renew not counted")
	}

	// C picks the reclaimed rectangle back up and finishes it 2s later:
	// the dist.lease/ok series sees one observation in the 2.5s bucket.
	lc := co.lease("C")
	if lc.Rect == nil {
		t.Fatalf("reclaimed rect not re-leased: %+v", lc)
	}
	clock.advance(2 * time.Second)
	r := localRectResult(t, minCRN(), minFunc, *lc.Rect, "C")
	if resp, err := co.result(r); err != nil || !resp.OK {
		t.Fatalf("result rejected: %+v %v", resp, err)
	}
	wantRects("one done", 2, 0, 1)

	// The scrape renders every dist family.
	var b strings.Builder
	if err := met.reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		`crn_dist_rects{status="pending"}`,
		`crn_dist_rects{status="leased"}`,
		`crn_dist_rects{status="done"} 1`,
		"crn_dist_leases_granted_total",
		"crn_dist_renew_failures_total",
		`crn_span_duration_seconds_count{name="dist.lease",outcome="expired"} 2`,
		`crn_span_duration_seconds_count{name="dist.lease",outcome="ok"} 1`,
		`crn_span_duration_seconds_sum{name="dist.lease",outcome="ok"} 2`,
		`crn_span_duration_seconds_bucket{name="dist.lease",outcome="ok",le="1"} 0`,
		`crn_span_duration_seconds_bucket{name="dist.lease",outcome="ok",le="2.5"} 1`,
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("scrape missing %q\n%s", fam, out)
		}
	}
}

// sweepAll forces a sweep outside a lease/renew call.
func (co *Coordinator) sweepAll() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
}
