// Command crnsim simulates a CRN read from a file (or stdin) in the text
// format of internal/parse, using either the exact Gillespie algorithm or
// the fair uniform-random scheduler.
//
// Usage:
//
//	crnsim -crn min.crn -x 100,80 [-method gillespie|fair] [-trials 10]
//	       [-seed 1] [-maxsteps 50000000] [-v]
//
// With -crn - the CRN is read from stdin. The tool prints per-trial final
// outputs and an ensemble summary. SIGINT/SIGTERM cancel the ensemble: each
// trial stops at its next step-window boundary and the command reports the
// interruption instead of partial trials.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crncompose/internal/parse"
	"crncompose/internal/sim"
	"crncompose/internal/trace"
	"crncompose/internal/vec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crnsim", flag.ContinueOnError)
	var (
		crnPath   = fs.String("crn", "", "CRN file (or - for stdin)")
		inputStr  = fs.String("x", "", "comma-separated input counts, e.g. 100,80")
		method    = fs.String("method", "fair", "scheduler: gillespie or fair")
		trials    = fs.Int("trials", 1, "number of independent trials")
		seed      = fs.Uint64("seed", 1, "base RNG seed")
		maxSteps  = fs.Int64("maxsteps", 50_000_000, "step budget per trial")
		silent    = fs.Int64("silent", 0, "convergence after this many output-silent steps (0 = terminal only)")
		verbose   = fs.Bool("v", false, "print the parsed CRN and per-trial details")
		traceFile = fs.String("trace", "", "write the run's spans to this file as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := trace.New(trace.Options{Proc: "crnsim"})
	if *traceFile != "" {
		defer func() {
			if werr := trace.WriteChromeTraceFile(*traceFile, tr); werr != nil {
				fmt.Fprintf(os.Stderr, "crnsim: writing -trace: %v\n", werr)
			}
		}()
	}
	if *crnPath == "" {
		return fmt.Errorf("missing -crn (use - for stdin)")
	}
	src, err := readAll(*crnPath)
	if err != nil {
		return err
	}
	c, err := parse.Parse(src)
	if err != nil {
		return err
	}
	x, err := parseInputs(*inputStr, c.Dim())
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(out, "parsed CRN (%d species, %d reactions, output-oblivious=%v):\n%s\n",
			c.NumSpecies(), len(c.Reactions), c.IsOutputOblivious(), c)
	}
	start, err := c.InitialConfig(x)
	if err != nil {
		return err
	}
	var runner sim.RunnerCtx
	switch *method {
	case "gillespie":
		runner = sim.GillespieCtx
	case "fair":
		runner = sim.FairRandomCtx
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	opts := []sim.Option{sim.WithMaxSteps(*maxSteps)}
	if *silent > 0 {
		opts = append(opts, sim.WithSilentSteps(*silent))
	}
	// SIGINT/SIGTERM cancel the ensemble (results are trial-for-trial
	// identical to the plain Ensemble when uninterrupted).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sp := tr.StartSpan(time.Now(), "crnsim.ensemble", trace.SpanContext{},
		trace.String("method", *method), trace.Int("trials", int64(*trials)))
	results, err := sim.EnsembleCtx(ctx, runner, start, *trials, *seed, opts...)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	sp.End(time.Now(), trace.String("outcome", outcome))
	if err != nil {
		return err
	}
	for i, r := range results {
		if *verbose {
			fmt.Fprintf(out, "trial %d: output=%d steps=%d converged=%v final=%s\n",
				i, r.Final.Output(), r.Steps, r.Converged, r.Final)
		} else {
			fmt.Fprintf(out, "trial %d: output=%d steps=%d converged=%v\n",
				i, r.Final.Output(), r.Steps, r.Converged)
		}
	}
	st := sim.Summarize(results)
	fmt.Fprintf(out, "summary: trials=%d converged=%d output[min=%d max=%d mean=%.2f] allEqual=%v medianSteps=%d\n",
		st.Trials, st.Converged, st.MinOutput, st.MaxOutput, st.MeanOutput, st.AllEqual, st.MedianSteps)
	return nil
}

func readAll(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func parseInputs(s string, d int) (vec.V, error) {
	if s == "" {
		if d == 0 {
			return vec.V{}, nil
		}
		return nil, fmt.Errorf("missing -x (CRN takes %d inputs)", d)
	}
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("-x has %d values, CRN takes %d inputs", len(parts), d)
	}
	x := make(vec.V, d)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative input %d", v)
		}
		x[i] = v
	}
	return x, nil
}
