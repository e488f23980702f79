// Command crncheck model-checks stable computation: it verifies, by
// exhaustive reachability analysis (the literal Section 2.2 definition),
// that a CRN stably computes a library function on a grid of inputs, and
// reports output-obliviousness and output-monotonicity.
//
// It runs in three modes. Local (the default) checks the whole grid
// in-process. -coordinator turns the process into the coordinator of a
// distributed run: it splits the grid into rectangles, leases them to
// workers over HTTP+JSON (internal/dist), reassigns rectangles whose
// workers die, and merges the results into the exact GridResult a local
// run would print. -join turns the process into a worker: it fetches the
// job from the coordinator, checks leased rectangles locally with
// reach.CheckGridCtx, and reports results until the job is done. A worker
// keeps retrying a coordinator it cannot reach for -join-grace, both to
// join (a worker may start before its coordinator) and once joined (riding
// out crashes and checkpoint restarts). A join that runs out exits 1; a
// joined worker that runs out exits 2 with a coordinator-lost error. A 4xx
// from the join endpoint fails immediately instead of retrying.
//
// -workers is how many grid inputs are checked at once; each input's
// exploration runs on one goroutine. Results — counts, the first failing
// input, its witness schedule — are byte-identical at every worker count
// and claim schedule, and (for distributed runs) at any worker-process
// count, join order, or crash schedule.
//
// -json emits the machine-readable GridResult — the same encoding the
// distributed protocol uses — instead of the human-readable report.
//
// SIGINT/SIGTERM (and -timeout) cancel the run cleanly: the engine stops
// at its next deterministic cancellation point and the command reports the
// cancellation instead of a partial verdict. -progress prints throttled
// checked-inputs counts to stderr without affecting the result.
//
// A coordinator serves GET /metrics (lease-table gauges, lease churn, and
// crn_span_duration_seconds for its job, lease and merge events) and GET
// /debug/traces (the span recorder) on its protocol listener, and
// -debug-addr adds net/http/pprof plus a second /debug/traces on a separate
// operator-only listener — profiles never share the port workers connect
// to.
//
// Every mode records spans: local runs open a root span over the grid with
// engine stage events as children; a coordinator parents lease and merge
// spans under its job span (continuing the submitter's trace when one is
// handed over, as crnserve does); a worker parents each rectangle under
// the lease's traceparent and ships the finished spans back with the
// result, so one trace id spans submitter, coordinator, and workers.
// -trace file writes whatever this process recorded as Chrome trace-event
// JSON at exit — load it in Perfetto or chrome://tracing.
//
// Usage:
//
//	crncheck -crn min.crn -f min -lo 0 -hi 5
//	crnsynth -f fig4a -n 2 -bound 8 | crncheck -crn - -f fig4a -hi 2
//	crncheck -crn min.crn -f min -hi 9 -coordinator :7421   # terminal 1
//	crncheck -join localhost:7421                           # terminal 2..N
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/metrics"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crncheck:", err)
		if errors.Is(err, dist.ErrCoordinatorLost) {
			// Distinct exit code: the worker gave up after -join-grace, but
			// the job itself may still complete under other workers once the
			// coordinator returns — "lost my coordinator" is operationally
			// different from "the check failed".
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crncheck", flag.ContinueOnError)
	var (
		crnPath    = fs.String("crn", "", "CRN file (or - for stdin)")
		fname      = fs.String("f", "", "library function the CRN should compute (see crnsynth -list)")
		lo         = fs.Int64("lo", 0, "grid lower bound per coordinate")
		hi         = fs.Int64("hi", core.DefaultHi, "grid upper bound per coordinate")
		maxConfigs = fs.Int("maxconfigs", core.DefaultMaxConfigs, "reachability budget per input")
		workers    = fs.Int("workers", 0, "how many grid inputs to check at once; each input is explored on one goroutine (0 = all CPUs, 1 = sequential)")
		jsonOut    = fs.Bool("json", false, "emit the machine-readable GridResult (the distributed protocol's encoding) instead of the human report")
		timeout    = fs.Duration("timeout", 0, "abort the check after this long (0 = none); a timed-out or interrupted run reports the cancellation, never a partial verdict")
		progFlag   = fs.Bool("progress", false, "print throttled progress lines (checked inputs) to stderr")

		coordAddr  = fs.String("coordinator", "", "run as distributed coordinator listening on this host:port; workers join with -join")
		joinAddr   = fs.String("join", "", "run as distributed worker against the coordinator at this host:port")
		joinGrace  = fs.Duration("join-grace", 15*time.Second, "worker: keep retrying an unreachable coordinator this long, to join it and, once joined, to survive its restarts; a joined worker that runs out exits with a coordinator-lost error")
		shards     = fs.Int("shards", 0, "coordinator: number of grid rectangles to lease out (0 = 16; more shards than workers keeps the tail balanced)")
		lease      = fs.Duration("lease", dist.DefaultLeaseTTL, "coordinator: lease TTL before a silent worker's rectangle is reassigned")
		checkpoint = fs.String("checkpoint", "", "coordinator: checkpoint file; completed rectangles are saved after each result and resumed on restart")
		debugAddr  = fs.String("debug-addr", "", "coordinator: serve net/http/pprof and /debug/traces on a separate listener (host:port); empty disables")
		traceFile  = fs.String("trace", "", "write the run's spans to this file as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One span recorder for whichever mode runs; the process name keys the
	// Perfetto track and the Proc field on spans a worker ships to its
	// coordinator.
	proc := "crncheck"
	switch {
	case *joinAddr != "":
		proc = "crncheck-worker"
	case *coordAddr != "":
		proc = "crncheck-coordinator"
	}
	tr := trace.New(trace.Options{Proc: proc})
	if *traceFile != "" {
		defer func() {
			if werr := trace.WriteChromeTraceFile(*traceFile, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "crncheck: writing -trace: %v\n", werr)
			}
		}()
	}
	if *debugAddr != "" {
		if *coordAddr == "" {
			return fmt.Errorf("-debug-addr only applies to coordinator mode (-coordinator)")
		}
		da, derr := trace.StartDebugServer(*debugAddr, tr)
		if derr != nil {
			return fmt.Errorf("debug listener: %w", derr)
		}
		fmt.Fprintf(os.Stderr, "crncheck: pprof on %s/debug/pprof/, traces on %s/debug/traces\n", da, da)
	}
	// SIGINT/SIGTERM cancel the run: engines unwind at their next
	// deterministic cancellation point (every 1024 explored heads, every
	// grid chunk) and return a wrapped context error instead of a partial
	// verdict.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *joinAddr != "" {
		return runWorker(ctx, *joinAddr, *workers, *joinGrace, tr)
	}
	if *crnPath == "" || *fname == "" {
		return fmt.Errorf("need both -crn and -f (or -join addr)")
	}
	src, err := core.ReadCRN(*crnPath)
	if err != nil {
		return err
	}
	c, f, err := core.ParseCheck(src, *fname)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintf(out, "structure: output-oblivious=%v output-monotonic=%v leader=%q species=%d reactions=%d\n",
			c.IsOutputOblivious(), c.IsOutputMonotonic(), c.Leader, c.NumSpecies(), len(c.Reactions))
	}
	los, his := reach.Cube(c.Dim(), *lo, *hi)

	var res reach.GridResult
	if *coordAddr != "" {
		if *maxConfigs < 1 {
			// Local mode gives a nonpositive budget a defined (if useless)
			// meaning — everything inconclusive. The distributed job spec
			// reserves nonpositive for "default", so refuse loudly rather
			// than silently diverge from local mode.
			return fmt.Errorf("-maxconfigs must be >= 1 in coordinator mode")
		}
		// The coordinator's /metrics renders reg; this process owns the
		// tracer, so its span counters are hooked here, once.
		reg := metrics.NewRegistry()
		tr.CountSpans(reg)
		co, cerr := dist.NewCoordinator(dist.CoordinatorConfig{
			CRN:        c,
			Func:       *fname,
			Lo:         los,
			Hi:         his,
			MaxConfigs: *maxConfigs,
			Shards:     *shards,
			LeaseTTL:   *lease,
			Checkpoint: *checkpoint,
			Metrics:    reg,
			Tracer:     tr,
			Logf:       stderrLogf,
		})
		if cerr != nil {
			return cerr
		}
		res, err = co.Run(ctx, *coordAddr)
	} else {
		// Local runs trace too: a root span over the whole grid with engine
		// stage events as children, so -trace on a plain check yields a
		// useful Perfetto timeline. -progress gives the seam a log hook,
		// and the progress adapter logs throttled stage counts through it.
		var logf func(format string, args ...any)
		var logEvery time.Duration
		if *progFlag {
			logf, logEvery = stderrLogf, 500*time.Millisecond
		}
		seam := trace.NewSeam(tr, nil, logf)
		root := seam.Start(time.Now(), "crncheck.check", trace.SpanContext{},
			trace.String("func", *fname))
		prog := seam.Progress(time.Now, root.Context(), logEvery)
		res, err = reach.CheckGridCtx(ctx, c, f, los, his,
			reach.WithMaxConfigs(*maxConfigs), reach.WithWorkers(*workers), reach.WithProgress(prog))
		outcome := reach.Outcome(res, err)
		prog.Finish(time.Now(), outcome)
		root.End(time.Now(), outcome)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeJSONResult(out, res); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, res)
		if !res.OK() && res.Failure.Verdict.Witness != nil {
			fmt.Fprintf(out, "witness schedule:\n%s", res.Failure.Verdict.Witness)
		}
	}
	if !res.OK() {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// stderrLogf prints one "crncheck: "-prefixed line to stderr — the log hook
// of every mode.
func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crncheck: "+format+"\n", args...)
}

// runWorker joins a coordinator and serves until the job is done or ctx is
// canceled (a canceled worker abandons its lease without reporting). The
// function library is resolved locally (core.Resolve), so worker and
// coordinator binaries must agree on it.
func runWorker(ctx context.Context, addr string, workers int, grace time.Duration, tr *trace.Tracer) error {
	w := &dist.Worker{
		Coordinator: addr,
		Workers:     workers,
		Grace:       grace,
		Tracer:      tr,
		Resolve:     core.Resolve,
		Logf:        stderrLogf,
	}
	return w.Run(ctx)
}

func writeJSONResult(out io.Writer, res reach.GridResult) error {
	b, err := reach.MarshalGridResultIndent(res)
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}
