// Command crnserve runs the verification service (internal/serve): a
// long-running HTTP+JSON server exposing classification, synthesis, model
// checking, and simulation over the same engines the one-shot CLIs use,
// with a content-addressed result cache and in-flight deduplication so
// repeated or concurrent identical requests cost one computation, and
// asynchronous jobs for large grid checks.
//
// Flags:
//
//	-addr addr          listen address (default :7542)
//	-workers n          reach worker budget for synchronous checks and local
//	                    jobs (0 = all CPUs)
//	-cache-max n        result-cache capacity in entries, LRU-evicted beyond
//	                    it (default 1024; -1 disables caching)
//	-sync-grid n        largest grid (input points) checked synchronously on
//	                    the request path; larger checks become async jobs
//	                    (default 512)
//	-dist-coordinator addr
//	                    run async jobs through an internal/dist coordinator
//	                    on this host:port — external workers join with
//	                    `crncheck -join addr` and compute the rectangles
//	-shards n           rectangles per job: progress (and, in dist mode,
//	                    lease) granularity (0 = 16)
//	-lease d            dist-mode lease TTL before a silent worker's
//	                    rectangle is reassigned (default 30s)
//	-coordinator-grace d
//	                    dist-mode degradation watchdog: if the handoff cannot
//	                    start (address taken) or no rectangle completes for
//	                    this long (all workers lost), the job finishes
//	                    locally, keeping the rectangles workers completed,
//	                    and is marked "degraded" — same bytes (default 10s;
//	                    negative fails the job instead)
//	-max-jobs n         admission budget: local async jobs executing
//	                    concurrently, each under its own cancellable context
//	                    (default 2); dist-mode jobs run one at a time
//	-job-ttl d          how long terminal jobs stay in the job table before
//	                    the janitor removes them; done results remain
//	                    reachable via the response cache (default 15m,
//	                    negative disables expiry)
//	-drain-timeout d    graceful-shutdown budget: on SIGINT/SIGTERM the
//	                    server stops admitting (readyz flips to 503), lets
//	                    in-flight jobs finish within this budget, cancels
//	                    the rest, and exits 0 (default 30s)
//	-debug-addr addr    serve net/http/pprof profiles and the span recorder
//	                    (GET /debug/traces; ?format=chrome for a
//	                    Perfetto-loadable trace) on a separate listener
//	                    (host:port); empty disables. Profiles and traces
//	                    never share the public listener, so an exposed
//	                    API port cannot leak heap profiles or request
//	                    attributes
//	-trace-cap n        finished spans kept in the trace ring buffer,
//	                    oldest evicted beyond it (default 4096)
//
// GET /metrics on the public listener renders every operational
// counter (cache, jobs, per-endpoint latency, engine progress, httpx
// retries, span counts) in the Prometheus text exposition format; see
// README.md ("Observability").
//
// Quickstart:
//
//	crnserve -addr :7542 &
//	curl -s :7542/v1/synthesize -d '{"func":"min"}'
//	curl -s :7542/v1/check -d '{"crn":"...","func":"min","hi":5}'
//
// A /v1/check response is byte-identical to `crncheck -json` for the same
// CRN, function, and bounds; see README.md ("Serving") for the full tour.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crncompose/internal/dist"
	"crncompose/internal/serve"
	"crncompose/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "crnserve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is done (nil ctx = interrupt).
// The listening address is printed to out once the server is up.
func run(args []string, out io.Writer, ctx context.Context) error {
	fs := flag.NewFlagSet("crnserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":7542", "listen address")
		workers   = fs.Int("workers", 0, "reach worker budget for synchronous checks and local jobs (0 = all CPUs)")
		cacheMax  = fs.Int("cache-max", serve.DefaultCacheMax, "result-cache capacity in entries, LRU-evicted beyond it (-1 disables caching)")
		syncGrid  = fs.Int64("sync-grid", serve.DefaultSyncGridLimit, "largest grid (input points) checked synchronously; larger checks become async jobs")
		distCoord = fs.String("dist-coordinator", "", "run async jobs through a dist coordinator on this host:port (workers join with `crncheck -join`)")
		shards    = fs.Int("shards", 0, "rectangles per async job: progress and lease granularity (0 = 16)")
		lease     = fs.Duration("lease", dist.DefaultLeaseTTL, "dist-mode lease TTL before a silent worker's rectangle is reassigned")
		coGrace   = fs.Duration("coordinator-grace", serve.DefaultCoordinatorGrace, "dist-mode degradation watchdog: if a handoff cannot start, or no rectangle completes for this long, the job finishes locally, keeping completed rectangles, marked degraded (negative disables the fallback)")
		maxJobs   = fs.Int("max-jobs", serve.DefaultMaxJobs, "local async jobs executing concurrently (admission budget); dist-mode jobs run one at a time")
		jobTTL    = fs.Duration("job-ttl", serve.DefaultJobTTL, "terminal-job lifetime in the job table (negative disables expiry; done results stay cached)")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: in-flight jobs get this long to finish on SIGINT/SIGTERM before being canceled")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and /debug/traces on a separate listener (host:port); empty disables")
		traceCap  = fs.Int("trace-cap", trace.DefaultCap, "finished spans kept in the trace ring buffer (oldest evicted beyond it); 0 = default")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := trace.New(trace.Options{Proc: "crnserve", Cap: *traceCap})
	if *debugAddr != "" {
		da, err := trace.StartDebugServer(*debugAddr, tr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crnserve: pprof on %s/debug/pprof/, traces on %s/debug/traces\n", da, da)
	}
	s := serve.New(serve.Config{
		Workers:          *workers,
		CacheMax:         *cacheMax,
		SyncGridLimit:    *syncGrid,
		DistCoordinator:  *distCoord,
		Shards:           *shards,
		LeaseTTL:         *lease,
		CoordinatorGrace: *coGrace,
		MaxJobs:          *maxJobs,
		JobTTL:           *jobTTL,
		Tracer:           tr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crnserve: "+format+"\n", args...)
		},
	})
	if err := s.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(out, "crnserve: listening on %s\n", s.Addr())
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	<-ctx.Done()
	// Graceful drain: stop admitting, let in-flight jobs finish within the
	// budget, cancel the rest, exit 0.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	return s.Drain(dctx)
}
