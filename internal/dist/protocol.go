// Package dist shards reach.CheckGrid across processes and machines.
//
// A Coordinator splits the [lo,hi]^d grid into axis-aligned rectangles that
// partition the grid into segments contiguous in canonical (lexicographic)
// grid order, and hands them to Workers over plain HTTP+JSON under
// time-bounded leases. A worker that crashes, hangs, or is killed simply
// loses its lease: the rectangle goes back to the pending set and is
// reassigned, so no failure schedule can lose the run. Completed rectangles
// are checkpointed to disk, so a restarted coordinator resumes instead of
// recomputing.
//
// # Determinism
//
// The merged result is byte-identical (in its JSON wire form and its
// String rendering) to a single-process reach.CheckGrid over the same grid,
// at any worker count, join order, or crash schedule:
//
//   - rectangles partition the grid into contiguous grid-order segments
//     (SplitGrid), and each is checked by reach.CheckGrid itself, with its
//     deterministic first-failure-in-grid-order semantics;
//   - the merge walks rectangles in grid order, summing counts, and stops at
//     the first rectangle reporting a failure (including its partial counts)
//     — exactly where the single-process run stops checking;
//   - duplicate results for a rectangle (a lease expired, both the old and
//     new holder reported) are identical by the engine's own determinism, so
//     the coordinator keeps the first and drops the rest.
//
// # Protocol
//
// Four endpoints, all JSON:
//
//	GET  /job     → JobSpec    (the CRN text, function name, grid, budgets)
//	POST /lease   LeaseRequest → LeaseResponse (a Rect under a TTL, or wait/done)
//	POST /renew   RenewRequest → RenewResponse (heartbeat; false = lease lost)
//	POST /result  ResultRequest → ResultResponse (a rectangle's GridResult)
//
// Lease, renew and result requests name their job by the hex SHA-256 of its
// JobSpec JSON (jobSum, the key the checkpoint file carries), which the
// worker computes from the JobSpec it joined with. A coordinator answers a
// request naming another job with 409 Conflict: one address serves one job
// after another (crnserve's dist mode), and a worker left over from an
// earlier job must not lease, or report into, the next one.
//
// Workers resolve the function name themselves (the coordinator never ships
// code), so coordinator and workers must agree on the function library —
// cmd/crncheck wires both sides to core.Resolve.
//
// # Fault model
//
// Every worker→coordinator request may be refused, time out, answer 5xx,
// stall, or be dropped after the coordinator committed its effect — the
// failure modes internal/faultnet injects deterministically in the chaos
// suite. The worker rides them out on one internal/httpx retry budget,
// Worker.Grace, for every join, lease and result call:
//
//   - transport errors, 5xx, and truncated bodies retry with full-jitter
//     exponential backoff; a 4xx is the coordinator rejecting the request
//     itself and fails fast (a misaddressed -join must not spin for the
//     whole Grace);
//   - a coordinator that stays unreachable after a successful join is
//     tolerated for Grace — long enough to span a checkpoint restart —
//     then surfaces as ErrCoordinatorLost, never a silent nil; one that
//     cannot be reached to join within Grace is a plain join error;
//   - every mutating endpoint is idempotent (duplicate lease, renew, and
//     result requests converge), so a response dropped after commit is
//     repaired by the retry, not double-applied;
//   - a renew answering OK=false means the lease was reassigned; the
//     fenced-out worker logs the loss, finishes the rectangle and posts its
//     result, which the coordinator accepts as a harmless duplicate;
//   - a 409 means the coordinator on the address now runs another job: a
//     lease answered 409 ends Worker.Run with an error, a renew answered
//     409 ends it at once, abandoning the rectangle without posting it,
//     and a result answered 409 is dropped like any other rejected result.
//
// # Instrumentation
//
// The coordinator and each worker instrument their events on one
// trace.Seam each: dist.job, dist.lease (ended ok at the accepted result,
// expired or lost when reclaimed) and dist.merge on the coordinator,
// dist.rect and every httpx.attempt of its coordinator clients on a
// worker. Each event records its span, observes
// crn_span_duration_seconds{name,outcome} when the process has a registry
// (the coordinator always does), and stamps its log lines with its trace
// and span ids — a worker's httpx retry and give-up lines included.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"crncompose/internal/trace"
)

// ProtocolVersion is bumped on any change to the wire types or the
// checkpoint format. Workers reject jobs with a different version, so a
// coordinator and a worker of different versions never talk.
const ProtocolVersion = 2

// JobSpec describes the grid-checking job to a joining worker. MaxConfigs
// and MaxCount are part of the job, not worker configuration: verdicts
// depend on them, so every rectangle must be checked under the same budgets.
type JobSpec struct {
	Version    int     `json:"version"`
	CRN        string  `json:"crn"`  // text format accepted by parse.Parse
	Func       string  `json:"func"` // function name, resolved by the worker
	Lo         []int64 `json:"lo"`
	Hi         []int64 `json:"hi"`
	MaxConfigs int     `json:"maxconfigs"`
	MaxCount   int64   `json:"maxcount"`
	Rects      int     `json:"rects"` // how many rectangles the grid was split into
}

// jobSum is a job's identity: the hex SHA-256 of its JobSpec JSON. The
// coordinator keys its checkpoint file on it, and a worker names the job it
// joined by it in every lease, renew and result request. JobSpec holds only
// strings and integers, so the encoding cannot fail, and a decoded JobSpec
// re-encodes to the coordinator's bytes.
func jobSum(job JobSpec) string {
	b, _ := json.Marshal(job)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Rect is one axis-aligned shard of the grid: all inputs lo ≤ x ≤ hi.
// IDs number the rectangles in canonical grid order.
type Rect struct {
	ID int     `json:"id"`
	Lo []int64 `json:"lo"`
	Hi []int64 `json:"hi"`
}

// LeaseRequest asks for a rectangle to check. WaitMillis, when positive,
// asks the coordinator to park the request for up to that long instead of
// answering Wait immediately (long-poll): the coordinator responds as soon
// as a rectangle frees up or the job finishes, and only answers Wait when
// the window closes empty. The coordinator clamps the window to its lease
// TTL. Zero asks for the immediate answer.
type LeaseRequest struct {
	Worker     string `json:"worker"`
	Job        string `json:"job"` // jobSum of the JobSpec the worker joined
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse grants a rectangle under a lease, asks the worker to poll
// again later (Wait), or tells it the job is finished (Done).
//
// Traceparent, when set on a grant, is the W3C trace context of the
// coordinator's per-lease span; a tracing worker parents its rectangle span
// under it, which is how one trace id spans submitter, coordinator, and
// worker. It rides the lease response — NOT JobSpec, whose JSON is hashed
// into the checkpoint compatibility key, so adding a per-run trace id there
// would orphan every existing checkpoint. It is empty when the
// coordinator does not trace.
type LeaseResponse struct {
	Done        bool   `json:"done,omitempty"`
	Wait        bool   `json:"wait,omitempty"`
	Rect        *Rect  `json:"rect,omitempty"`
	TTLMillis   int64  `json:"ttl_ms,omitempty"`
	Traceparent string `json:"traceparent,omitempty"`
}

// RenewRequest extends a lease while a long rectangle is being checked.
type RenewRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	RectID int    `json:"rect_id"`
}

// RenewResponse reports whether the lease is still held. OK=false means the
// lease expired and the rectangle may have been reassigned; the worker may
// keep computing (a duplicate result is accepted idempotently) or abandon.
type RenewResponse struct {
	OK bool `json:"ok"`
}

// ResultRequest reports one rectangle's result. Result is the JSON encoding
// of reach.GridResult and is always set by a well-behaved worker; Err is set
// alongside it when enumeration stopped on a deterministic job error (a
// negative f value, a bad initial configuration), in which case Result
// carries the partial counts up to the error — the coordinator's merge
// includes them, exactly as a local CheckGrid returns partial counts with
// its error. An Err-only report (no Result) is accepted but loses those
// partial counts; don't send one.
// Spans carries the worker's finished spans for the rectangle's trace
// (the rectangle-compute span and its children), so the coordinator's
// /debug/traces shows the whole cross-process trace. Bounded: the
// coordinator records at most maxShippedSpans per report.
type ResultRequest struct {
	Worker string           `json:"worker"`
	Job    string           `json:"job"`
	RectID int              `json:"rect_id"`
	Result json.RawMessage  `json:"result,omitempty"`
	Err    string           `json:"err,omitempty"`
	Spans  []trace.SpanData `json:"spans,omitempty"`
}

// maxShippedSpans bounds how many spans one result report may carry (both
// sides enforce it: the worker truncates, the coordinator ignores the rest).
const maxShippedSpans = 64

// ResultResponse acknowledges a result report.
type ResultResponse struct {
	OK bool `json:"ok"`
}
