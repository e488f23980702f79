// Command crnsynth synthesizes an output-oblivious CRN for a function from
// the paper's library and emits it in the text format understood by crnsim
// and crncheck.
//
// Usage:
//
//	crnsynth -f min                    # general construction (Lemma 6.2)
//	crnsynth -f floor3x2 -leaderless   # Theorem 9.2 (1D superadditive only)
//	crnsynth -list                     # list available functions
//	crnsynth -f max                    # fails with the Lemma 4.1 witness
//	crnsynth -f min -verify 3          # synthesize, then model-check on [0,3]^d
//
// Flags -bound and -n tune the classifier census bound and the eventual
// threshold (smaller n ⇒ smaller CRN, when valid). -verify model-checks the
// synthesized CRN before emitting it on a shared work-stealing pool of
// -workers goroutines spanning grid inputs and per-input exploration.
//
// SIGINT/SIGTERM cancel the pipeline cleanly: classification, synthesis,
// and verification all stop at their next deterministic cancellation point
// and the command reports the interruption instead of emitting anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnsynth:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crnsynth", flag.ContinueOnError)
	var (
		name       = fs.String("f", "", "function name (see -list)")
		list       = fs.Bool("list", false, "list available functions")
		leaderless = fs.Bool("leaderless", false, "use the leaderless Theorem 9.2 construction (1D superadditive only)")
		bound      = fs.Int64("bound", 0, "classifier census bound (0 = default)")
		n          = fs.Int64("n", 0, "eventual threshold override (0 = classifier's)")
		stats      = fs.Bool("stats", false, "print size statistics instead of the CRN")
		verify     = fs.Int64("verify", -1, "model-check the synthesized CRN on the grid [0,N]^d before emitting it (-1 = off)")
		workers    = fs.Int("workers", 0, "verification worker pool size; the shared work-stealing pool spans grid inputs and per-input exploration (0 = all CPUs)")
		maxConfigs = fs.Int("maxconfigs", core.DefaultMaxConfigs, "verification reachability budget per input")
		traceFile  = fs.String("trace", "", "write the run's spans to this file as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := trace.New(trace.Options{Proc: "crnsynth"})
	if *traceFile != "" {
		defer func() {
			if werr := trace.WriteChromeTraceFile(*traceFile, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "crnsynth: writing -trace: %v\n", werr)
			}
		}()
	}
	if *list {
		fmt.Fprintln(out, strings.Join(core.LibraryNames(), "\n"))
		return nil
	}
	f, err := core.Lookup(*name)
	if err != nil {
		return fmt.Errorf("%w (try -list)", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	seam := trace.NewSeam(tr, nil, nil)
	root := seam.Start(time.Now(), "crnsynth.compile", trace.SpanContext{}, trace.String("func", *name))
	sys, err := core.Synthesize(ctx, f, *bound, *n, *leaderless, nil)
	root.End(time.Now(), trace.Outcome(err))
	if err != nil {
		return err
	}
	if *verify >= 0 {
		vev := seam.Start(time.Now(), "crnsynth.verify", trace.SpanContext{},
			trace.String("func", *name), trace.Int("hi", *verify))
		res, verr := sys.VerifyCtx(ctx, 0, *verify, reach.WithWorkers(*workers), reach.WithMaxConfigs(*maxConfigs))
		vev.End(time.Now(), reach.Outcome(res, verr))
		if verr != nil {
			return verr
		}
		if !res.OK() {
			return fmt.Errorf("synthesized CRN failed verification: %s", res)
		}
		fmt.Fprintf(os.Stderr, "verified: %s\n", res)
	}
	if *stats && *leaderless {
		fmt.Fprintf(out, "function=%s species=%d reactions=%d leaderless=true\n",
			f.Name, sys.Net.NumSpecies(), len(sys.Net.Reactions))
		return nil
	}
	if *stats {
		fmt.Fprintf(out, "function=%s species=%d reactions=%d terms=%d n=%s oblivious=%v\n",
			f.Name, sys.Net.NumSpecies(), len(sys.Net.Reactions),
			len(sys.Analysis.EventualMin.Terms), sys.Analysis.N, sys.Net.IsOutputOblivious())
		return nil
	}
	fmt.Fprint(out, sys.Net)
	return nil
}
