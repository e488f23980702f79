package dist

import "crncompose/internal/metrics"

// distMetrics bundles the coordinator's observability families,
// rendered by GET /metrics on the coordinator's own listener:
//
//	crn_dist_rects{status}                   gauge     — lease table by
//	    status (pending | leased | done)
//	crn_dist_leases_granted_total            counter   — every grant,
//	    re-grants of reclaimed rectangles included
//	crn_dist_renew_failures_total            counter   — renew requests
//	    answered "lease lost" (the worker was fenced out)
//
// Lease timings are not a family of their own: each lease is a dist.lease
// event on the coordinator's trace.Seam, so crn_span_duration_seconds
// {name="dist.lease"} observes grant to accepted result (outcome ok) and
// counts reclaimed leases (outcome expired, or lost to RunLocal). Those
// durations come from the coordinator's injected clock (co.now), the same
// clock the lease table runs on, so lease tests with a fake clock observe
// deterministic buckets.
type distMetrics struct {
	reg *metrics.Registry

	rectsPending *metrics.Gauge
	rectsLeased  *metrics.Gauge
	rectsDone    *metrics.Gauge

	leasesGranted *metrics.Counter
	renewFailures *metrics.Counter
}

func newDistMetrics(reg *metrics.Registry) *distMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &distMetrics{reg: reg}
	rects := reg.GaugeVec("crn_dist_rects",
		"Coordinator lease table by rectangle status.", "status")
	m.rectsPending = rects.With("pending")
	m.rectsLeased = rects.With("leased")
	m.rectsDone = rects.With("done")
	m.leasesGranted = reg.Counter("crn_dist_leases_granted_total",
		"Rectangle leases granted, re-grants after reclaim included.")
	m.renewFailures = reg.Counter("crn_dist_renew_failures_total",
		"Renew requests answered with a lost lease (worker fenced out).")
	return m
}

// syncRectsLocked recomputes the lease-table gauges from the states
// slice. Caller holds co.mu. O(shards) per transition, and shards is
// small by design (rectangles are the lease granularity, not the work
// granularity).
func (co *Coordinator) syncRectsLocked() {
	n := co.countLocked()
	co.met.rectsPending.Set(int64(n[rectPending]))
	co.met.rectsLeased.Set(int64(n[rectLeased]))
	co.met.rectsDone.Set(int64(n[rectDone]))
}
