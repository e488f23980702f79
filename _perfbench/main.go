// Command perfbench is crncompose's benchmark. It drives an in-process
// crnserve (serve.New + Start on loopback, default serve.Config) and dist
// coordinator over real loopback HTTP with closed-loop clients, checks
// every response byte for byte against the crncheck -json body of an
// in-process reach.CheckGrid, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"latency_p50_ms": {"value": 0.08, "unit": "ms"}, ...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash _perfbench/run.sh --workload check-hot --seed 1 --seconds 12 --trace 0
//
// --trace 0 is the untraced pass: it reports the end-to-end metrics.
// --trace 1 is the traced pass: it hands a trace.Tracer to the server, the
// coordinator and the workers, folds their spans into per-layer times, and
// times the layers' public functions on the workloads' inputs. Workload
// "all" runs every workload in turn and prefixes each metric with its
// workload's name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 5

// minOps is the fewest operations a timed run completes, so its reported
// 90th percentile has minTail samples beyond it.
const minOps = 100

func main() {
	workload := flag.String("workload", "", "check-hot, check-cold, jobs-local, grid-dist, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 12, "how long the run measures")
	traced := flag.Int("trace", 0, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	dur := time.Duration(*seconds * float64(time.Second))
	out := &report{metrics: map[string]metric{}}
	for _, w := range names {
		if !slices.Contains(workloads, w) || *traced < 0 || *traced > 1 || dur <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --seconds %g --trace %d\n", w, *seconds, *traced)
			os.Exit(2)
		}
		fmt.Printf("# perfbench workload=%s seed=%d traced=%v clients=%d seconds=%g num_cpu=%d gomaxprocs=%d go=%s\n",
			w, *seed, *traced == 1, clients, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		rep := &report{metrics: map[string]metric{}}
		var err error
		if *traced == 1 {
			err = tracedRun(rep, w, *seed, dur)
		} else {
			err = untracedRun(rep, w, *seed, dur)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		rep.print(w)
		out.merge(rep, w, len(names) > 1)
	}
	b, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, the human-readable lines printed
// beside them, and anything that makes the run incorrect.
type report struct {
	metrics   map[string]metric
	lines     []string
	attempted int
	failed    int
	problems  []string
}

// add records a metric of the JSON result and its printed line.
func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	r.info(name, v, unit, note)
}

// info prints a line that is not part of the JSON result.
func (r *report) info(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	r.lines = append(r.lines, fmt.Sprintf("%-26s %14.6g %s%s", name, v, unit, note))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds a loop's operations to attempted and failed, reporting the
// first failure.
func (r *report) count(l loop) {
	if l.err != nil && r.failed == 0 {
		r.fail("operation failed: %v", l.err)
	}
	r.attempted += l.n
	r.failed += l.failed
}

func (r *report) print(w string) {
	for _, l := range r.lines {
		fmt.Printf("%s %s\n", w, l)
	}
	for _, p := range r.problems {
		fmt.Printf("%s FAIL %s\n", w, p)
	}
}

func (r *report) merge(o *report, w string, prefix bool) {
	for k, v := range o.metrics {
		if prefix {
			k = w + "." + k
		}
		r.metrics[k] = v
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
}

// loop is a closed-loop run's outcome. Results are stored in fixed-size
// chunks, so the process's resident set grows with the operation count
// instead of jumping when a slice doubles.
type loop struct {
	chunks    [][]opResult
	n, failed int
	err       error // the first failure
	start     time.Time
	wall      time.Duration
}

const chunk = 4096

// add appends o's operations to l.
func (l *loop) add(o loop) {
	l.chunks = append(l.chunks, o.chunks...)
	l.n += o.n
	l.failed += o.failed
	if l.err == nil {
		l.err = o.err
	}
}

// ok calls fn on every successful operation.
func (l loop) ok(fn func(opResult)) {
	for _, c := range l.chunks {
		for _, op := range c {
			if !op.failed {
				fn(op)
			}
		}
	}
}

// runLoop drives the closed-loop client against f, which sends its next
// operation only when the previous one has completed, for dur, and past
// dur (up to 3·dur) until atLeast operations have completed. stop, when
// non-nil, ends the loop early: a traced pass's span budget.
func runLoop(f *fixture, dur time.Duration, atLeast int, stop func() bool) loop {
	l := loop{start: time.Now()}
	deadline, hard := l.start.Add(dur), l.start.Add(3*dur)
	for {
		now := time.Now()
		if now.After(hard) || now.After(deadline) && l.n >= atLeast || stop != nil && stop() {
			break
		}
		i := f.next
		f.next++
		r, err := f.op(i)
		r.i, r.failed = int32(i), err != nil
		if err != nil {
			l.failed++
			if l.err == nil {
				l.err = err
			}
		}
		if k := len(l.chunks) - 1; k < 0 || len(l.chunks[k]) == chunk {
			l.chunks = append(l.chunks, make([]opResult, 0, chunk))
		}
		k := len(l.chunks) - 1
		l.chunks[k] = append(l.chunks[k], r)
		l.n++
	}
	l.wall = time.Since(l.start)
	return l
}

// latencies returns the successful operations' latencies in ms, sorted.
func (l loop) latencies() []float64 {
	lat := make([]float64, 0, l.n)
	l.ok(func(op opResult) { lat = append(lat, op.ms()) })
	sort.Float64s(lat)
	return lat
}

// roundRates measures throughput per deck round: for every round whose
// operations all succeeded, its operations and the configurations their
// answers explored (the same in every round), divided by the round's
// client time (its summed latency). The medians over rounds
// shrug off the bursts of CPU a shared machine loses, where a whole-run
// ratio would not.
func (l loop) roundRates(f *fixture) (opsPerS, configsPerS float64, rounds int) {
	size := len(f.deck.slots)
	explored := 0
	for _, s := range f.deck.slots {
		explored += f.pool[s].explored
	}
	type acc struct {
		n  int
		ns int64
	}
	per := map[int32]*acc{}
	l.ok(func(op opResult) {
		a := per[op.i/int32(size)]
		if a == nil {
			a = &acc{}
			per[op.i/int32(size)] = a
		}
		a.n++
		a.ns += op.end - op.start
	})
	var rates []float64
	for _, a := range per {
		if a.n == size {
			rates = append(rates, float64(size)/(float64(a.ns)/1e9))
		}
	}
	r := median(rates)
	return r, r * float64(explored) / float64(size), len(rates)
}

// untracedRun is the end-to-end pass: set the workload up setupReps times
// (fresh server each time; the last one is timed), force a GC, and run the
// closed loop with tracing off.
func untracedRun(rep *report, w string, seed uint64, dur time.Duration) error {
	var setups []float64
	var f *fixture
	for range setupReps {
		if f != nil {
			f.close()
			debug.FreeOSMemory() // each set-up starts from the same heap
		}
		t0 := time.Now()
		var err error
		if f, err = setup(w, seed, nil, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	before := f.cacheCounters()
	debug.FreeOSMemory()
	l := runLoop(f, dur, minOps, nil)
	f.checkHitRatio(rep, before)
	rep.count(l)
	lat := l.latencies()
	opsPerS, configsPerS, rounds := l.roundRates(f)
	p50, ok50 := percentile(lat, 0.5)
	p90, ok90 := percentile(lat, 0.9)
	if !ok50 || !ok90 {
		rep.fail("only %d successful operations: too few for a 90th percentile", len(lat))
	}
	rep.add("ops_per_s", opsPerS, "1/s", fmt.Sprintf("median over %d rounds of %d; %d ops in %.3f s, %d clients",
		rounds, len(f.deck.slots), len(lat), l.wall.Seconds(), clients))
	rep.add("latency_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(lat)))
	rep.add("latency_p90_ms", p90, "ms", fmt.Sprintf("n=%d, %d beyond", len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat))))))
	rep.info("error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d failed, refused or byte-mismatched", rep.failed, rep.attempted))
	rep.add("configs_per_s", configsPerS, "1/s", "GridResult.Explored of the answers, median over rounds")
	rep.add("max_rss_mb", maxRSSMB(), "MB", "peak of this process, which hosts the server")
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %s", len(setups), fmtList(setups)))
	return nil
}

// cacheCounters reads the server's cache counters from GET /v1/stats (zero
// for grid-dist, which has no server).
func (f *fixture) cacheCounters() cacheCounters {
	var st struct{ Cache cacheCounters }
	if f.srv == nil {
		return st.Cache
	}
	if code, b, err := f.get("/v1/stats", ""); err == nil && code == 200 {
		_ = json.Unmarshal(b, &st) // a bad document reads as zero counts and fails the guard
	}
	return st.Cache
}

type cacheCounters struct{ Hits, Misses, Dedups uint64 }

// checkHitRatio returns the share of cache lookups since before that hit,
// and fails the run when check-hot missed the cache or check-cold hit it:
// either means the workload no longer has its shape. Other workloads are
// not checked and read 0.
func (f *fixture) checkHitRatio(rep *report, before cacheCounters) float64 {
	want, ok := map[string]float64{checkHot: 1, checkCold: 0}[f.w]
	if !ok {
		return 0
	}
	a := f.cacheCounters()
	hits := float64(a.Hits - before.Hits)
	lookups := hits + float64(a.Misses-before.Misses) + float64(a.Dedups-before.Dedups)
	got := -1.0 // no lookups at all
	if lookups > 0 {
		got = hits / lookups
	}
	if got != want {
		rep.fail("%s cache hit ratio %g (%g lookups), want %g", f.w, got, lookups, want)
	}
	return got
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
