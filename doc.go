// Package crncompose is a from-scratch Go reproduction of
//
//	Severson, Haley, Doty. "Composable computation in discrete chemical
//	reaction networks." PODC 2019 (arXiv:1903.02637).
//
// The paper characterizes the functions f : N^d → N stably computable by
// output-oblivious CRNs — those whose output species is never a reactant —
// which is exactly the class composable by concatenation. This module
// implements the full constructive content of the paper:
//
//   - internal/vec: exact integer vector arithmetic, the pointwise order
//     and congruences;
//   - internal/crn, internal/parse: the discrete CRN model (with
//     allocation-free dense-row applicability/apply accessors for the
//     explorer) and a text format;
//   - internal/reach: an exhaustive stable-computation model checker
//     (the literal Section 2.2 definition) built on a configuration arena
//     of rows packed at the narrowest count width (1, 2, 4 or 8 bytes),
//     interned in an open-addressing table whose slots carry a tag of
//     the row's hash, with CSR edge storage and one successor kernel that
//     patches a row and its additive hash in O(|Δ|); each input is
//     explored sequentially by one goroutine, and CheckGrid's workers
//     claim whole inputs, each reusing one workspace (table, arena, edge
//     and verdict arrays) across its inputs, so results are byte-identical
//     at any worker count; CheckGridCtx cancels at deterministic points
//     (every 1024 explored heads and every grid chunk) and returns a
//     wrapped context error, never a partial verdict;
//   - internal/dist: the distributed grid checker — a coordinator that
//     shards CheckGrid into grid-order rectangles leased to workers over
//     HTTP+JSON, with expired leases reassigned (a killed worker never
//     loses the run), completed rectangles checkpointed for coordinator
//     restart, and a deterministic merge making the final GridResult
//     byte-identical to a single-process run at any worker count, join
//     order, or crash schedule;
//   - internal/serve: verification as a service — a long-running HTTP+JSON
//     server (cmd/crnserve) over the classify/synthesize/check/simulate
//     pipeline with a content-addressed result cache (SHA-256 of the
//     canonical request; the engines' determinism makes replayed bytes
//     indistinguishable from recomputation), in-flight deduplication of
//     identical concurrent requests, and asynchronous grid jobs — each
//     one goroutine that waits for one of the server's admission slots,
//     then checks its whole grid itself or, in dist mode, hands its
//     rectangles to external workers through an internal/dist
//     coordinator — cancellable via DELETE, and drained gracefully on
//     SIGTERM; /v1/check bodies are byte-identical to crncheck -json; a
//     dist handoff that cannot start, or that no worker reaches for one
//     lease TTL, degrades and finishes locally on the same coordinator,
//     keeping the rectangles workers completed — same bytes, marked
//     "degraded" in the job status;
//   - internal/httpx: the one retrying HTTP client every cross-process
//     call in dist and serve goes through — full-jitter exponential
//     backoff, per-attempt timeouts, a wall-clock retry budget, and the
//     4xx/5xx retryability split (server errors and transport failures
//     retry; rejections fail fast);
//   - internal/metrics: a stdlib-only metrics registry — atomic
//     counters, gauges, and fixed-bucket histograms with bounded label
//     vectors — rendering the Prometheus text exposition format 0.0.4
//     deterministically (sorted families and label sets); its one timing
//     primitive takes both instants from the caller, so the package
//     never reads a clock and the determinism analyzer still catches
//     engines laundering time.Now through a metrics helper; surfaced at
//     GET /metrics on crnserve and on the dist coordinator;
//   - internal/trace: a stdlib-only distributed-tracing recorder — W3C
//     traceparent ids from an injectable generator, spans in a bounded
//     ring buffer, deterministic byte-stable JSON export and Chrome
//     trace-event (Perfetto-loadable) export, GET /debug/traces on the
//     operator listeners; every instant comes from the caller, so the
//     package never reads a clock and sits in the crnlint engine set
//     itself; one trace id follows a request from the serve root span
//     through the coordinator's lease spans to worker rectangle spans
//     shipped back with each result. Its Seam is the one instrumentation
//     seam of every layer: one Start/End(now, outcome) per event records
//     the span, observes crn_span_duration_seconds{name,outcome} and
//     stamps the event's log lines with its trace and span ids, and its
//     progress adapter turns engine progress into stage events and the
//     crn_progress_* families;
//   - internal/faultnet: deterministic seeded fault injection for chaos
//     tests — RoundTripper and Listener wrappers that refuse, time out,
//     inject 5xx, slow, or drop-after-commit requests on a pure
//     function of (seed, request index), so every failure schedule is
//     reproducible from its seed;
//   - internal/lint: the repository's own static-analysis suite
//     (cmd/crnlint), stdlib-only go/parser + go/types passes that
//     machine-check the invariants behind the byte-identity guarantees:
//     no wall clocks or package-global randomness in engine packages
//     (determinism), no HTTP outside internal/httpx (httpx), no
//     map-iteration order leaking into output (mapiter),
//     package-prefixed %w-wrapped errors at engine entry points
//     (errwrap), and no internal function that no non-test code calls
//     (unreached); findings are suppressible only by an inline
//     //crnlint:ignore directive with a reason, and CI requires the
//     tree to lint clean;
//   - internal/progress: the progress.Reporter seam every long-running
//     engine reports through (checked grid inputs, explored
//     configurations, simulation steps, synthesized modules) — the hook the seam's
//     progress adapter (stage events, crn_progress_*, crncheck -progress
//     lines) attaches to;
//     the stage strings and their Done/Total semantics are pinned by
//     a cross-engine contract test;
//   - internal/sim: Gillespie and fair-random stochastic simulation, both
//     maintaining their hot state (propensities, the applicable set)
//     incrementally over the CRN's memoized reaction dependency graph,
//     with a sound silence criterion (convergence additionally requires
//     every applicable reaction to be output-neutral), adversarial
//     schedulers, parallel ensembles;
//   - internal/semilinear, internal/quilt: semilinear functions
//     (Definition 2.6) and quilt-affine functions (Definition 5.1);
//   - internal/geometry: hyperplane arrangements, regions, recession
//     cones, strips (Section 7), decided exactly with rational
//     Fourier–Motzkin elimination;
//   - internal/classify: the Theorem 5.2 decision procedure producing
//     eventually-min-of-quilt-affine normal forms or Lemma 4.1
//     contradictions;
//   - internal/witness: contradiction-sequence search and the Figure 6
//     overproduction-trace construction;
//   - internal/synth: every CRN construction in the paper (Lemma 6.1,
//     Theorem 3.1, Theorem 9.2, Observation 2.4, and the recursive
//     Lemma 6.2 general construction);
//   - internal/compose: concatenation and feed-forward module wiring
//     (Section 2.3);
//   - internal/scaling: the ∞-scaling bridge to continuous CRNs
//     (Theorem 8.2);
//   - internal/core: the end-to-end facade;
//   - internal/figures: regeneration of the data behind Figures 1–8.
//
// See README.md for build/usage instructions and benchmark numbers. The
// committed BENCH_reach.json and BENCH_sim.json (regenerated by cmd/bench)
// track the engines' hot paths; BENCH_e2e.json records _perfbench's
// end-to-end serve and dist runs.
package crncompose
