// Command bench runs the reachability and simulation engine suites and
// writes machine-readable results to BENCH_reach.json and BENCH_sim.json,
// so the engines' hot paths (configs/sec explored, ns per simulated
// reaction, allocations) are tracked in-repo. Each row is the median of
// three testing.Benchmark samples with the fastest and slowest as its
// spread (one sample under -quick). The end-to-end serve and dist
// numbers come from _perfbench instead (BENCH_e2e.json).
//
// Usage:
//
//	go run ./cmd/bench             # full suites, writes BENCH_*.json in .
//	go run ./cmd/bench -quick      # small workloads (CI smoke), same files
//	go run ./cmd/bench -outdir /tmp -suite reach
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crncompose/internal/benchcrn"
	"crncompose/internal/classify"
	"crncompose/internal/core"
	"crncompose/internal/reach"
	"crncompose/internal/semilinear"
	"crncompose/internal/sim"
	"crncompose/internal/synth"
	"crncompose/internal/vec"
)

// record is one benchmark row: the median of its samples by ns/op (that
// sample's iterations, allocations and extra metrics), with the fastest and
// slowest samples' ns/op as its spread.
type record struct {
	Name        string             `json:"name"`
	Samples     int                `json:"samples"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMax  float64            `json:"ns_per_op_max"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type suiteReport struct {
	Suite       string   `json:"suite"`
	GeneratedBy string   `json:"generated_by"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Quick       bool     `json:"quick"`
	Benchmarks  []record `json:"benchmarks"`
}

// suites is every suite bench can run, in the order -suite all runs them.
var suites = []struct {
	name, file string
	run        func(quick bool) suiteReport
}{
	{"reach", "BENCH_reach.json", reachSuite},
	{"sim", "BENCH_sim.json", simSuite},
}

func main() {
	quick := flag.Bool("quick", false, "small workloads for CI smoke runs")
	outdir := flag.String("outdir", ".", "directory for BENCH_*.json")
	suite := flag.String("suite", "all", "which suite to run: "+suiteNames())
	flag.Parse()
	run := suites
	if *suite != "all" {
		run = nil
		for _, st := range suites {
			if st.name == *suite {
				run = append(run, st)
			}
		}
		if len(run) == 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown -suite %q (want %s)\n", *suite, suiteNames())
			os.Exit(2)
		}
	}
	for _, st := range run {
		if err := writeReport(*outdir, st.file, st.run(*quick)); err != nil {
			fatal(err)
		}
	}
}

// suiteNames lists the accepted -suite values.
func suiteNames() string {
	names := make([]string, 0, len(suites)+1)
	for _, st := range suites {
		names = append(names, st.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func newReport(name string, quick bool) suiteReport {
	return suiteReport{
		Suite:       name,
		GeneratedBy: "go run ./cmd/bench",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
	}
}

func writeReport(dir, file string, rep suiteReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	return nil
}

// samples is how many testing.Benchmark runs each row takes: three for
// a median with its spread, one under -quick.
func samples(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// measure runs fn as n testing.Benchmark samples and records the median.
func measure(name string, n int, fn func(b *testing.B)) record {
	rs := make([]testing.BenchmarkResult, n)
	for i := range rs {
		rs[i] = testing.Benchmark(fn)
	}
	slices.SortFunc(rs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(nsPerOp(a), nsPerOp(b)) })
	r := rs[n/2]
	return record{
		Name:        name,
		Samples:     n,
		Iterations:  r.N,
		NsPerOp:     nsPerOp(r),
		NsPerOpMin:  nsPerOp(rs[0]),
		NsPerOpMax:  nsPerOp(rs[n-1]),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       maps.Clone(r.Extra),
	}
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// reachSuite measures the state-space explorer on the paper's Fig 4a
// general construction at x=(1,1) — the canonical single-input workload —
// plus the grid verifier sequentially and with workers claiming inputs.
func reachSuite(quick bool) suiteReport {
	rep := newReport("reach", quick)
	f := semilinear.Fig4a()
	c, _, err := synth.General(f, synth.GeneralOptions{
		Classify: classify.Options{Bound: 8},
		N:        2,
	})
	if err != nil {
		fatal(err)
	}
	root := c.MustInitialConfig(vec.New(1, 1))
	budget := 1 << 23
	if quick {
		budget = 1 << 14 // explore a 16k-config prefix only
	}
	k := samples(quick)
	// An exploration runs on one goroutine at any worker budget, so one
	// row covers it.
	rec := measure("explore_fig4a_workers1", k, func(b *testing.B) {
		b.ReportAllocs()
		var configs int
		for i := 0; i < b.N; i++ {
			g := reach.Explore(root, reach.WithMaxConfigs(budget), reach.WithWorkers(1))
			if g.Complete == quick {
				b.Fatalf("Complete = %v with budget %d", g.Complete, budget)
			}
			configs = g.NumConfigs()
		}
		b.ReportMetric(float64(configs), "configs")
		b.ReportMetric(float64(configs)/(b.Elapsed().Seconds()/float64(b.N)), "configs/s")
	})
	rec.Extra = withExtra(rec.Extra, "bytes_per_config", bytesPerConfig(func() *reach.Graph {
		return reach.Explore(root, reach.WithMaxConfigs(budget), reach.WithWorkers(1))
	}))
	rep.Benchmarks = append(rep.Benchmarks, rec)
	// The fig4a 2×2 grid is itself the paper-shaped skewed workload: x=(1,1)
	// explores ~87k configurations while the axis inputs are trivial, so
	// with workers claiming inputs the grid's wall-clock should be close to
	// the large input checked alone.
	aloneFig := measure("checkinput_fig4a_x11_alone", k, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := reach.CheckInput(root, f.Eval(vec.New(1, 1)), reach.WithMaxConfigs(budget))
			if v.Explored == 0 {
				b.Fatal("explored nothing")
			}
		}
	})
	rep.Benchmarks = append(rep.Benchmarks, aloneFig)
	// Fig 4a (2,1), one input of the full [0,2]^2 grid test, explores
	// 890,958 configurations: ten times the (1,1) rows, large enough for
	// the verdict pass's time and allocation to show.
	root21 := c.MustInitialConfig(vec.New(2, 1))
	rep.Benchmarks = append(rep.Benchmarks, measure("checkinput_fig4a_x21", k, func(b *testing.B) {
		b.ReportAllocs()
		var explored int
		for i := 0; i < b.N; i++ {
			v := reach.CheckInput(root21, f.Eval(vec.New(2, 1)), reach.WithMaxConfigs(budget))
			if !quick && !v.OK {
				b.Fatalf("Fig 4a (2,1) not verified: %+v", v)
			}
			explored = v.Explored
		}
		b.ReportMetric(float64(explored), "configs")
	}))
	hi := int64(1)
	for _, workers := range []int{1, 0} {
		rec := measure(fmt.Sprintf("checkgrid_fig4a_2x2_workers%d", workers), k, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := reach.CheckGrid(c, core.Evaluator(f),
					[]int64{0, 0}, []int64{hi, hi},
					reach.WithMaxConfigs(budget), reach.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if !quick && !res.OK() {
					b.Fatal(res)
				}
			}
		})
		if workers == 0 {
			rec.Extra = withExtra(rec.Extra, "vs_large_alone", rec.NsPerOp/aloneFig.NsPerOp)
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	rep.Benchmarks = append(rep.Benchmarks, skewGridBenchmarks(quick, k)...)
	return rep
}

// bytesPerConfig is the heap a live Graph retains per configuration: the
// HeapAlloc after a collection with the graph from explore alive, minus the
// HeapAlloc after a collection before it was built, divided by its
// configurations. It runs outside the timed loop.
func bytesPerConfig(explore func() *reach.Graph) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := explore()
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := g.NumConfigs()
	runtime.KeepAlive(g)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// skewGridBenchmarks measures the synthetic 1-large-among-N-small grid
// (benchcrn.SkewGrid): N trivial inputs plus one input whose state space is
// 2^m configurations. With workers claiming whole inputs the trivial ones
// run beside the straggler, so the grid's wall-clock at every CPU should
// stay close to checking the large input alone.
func skewGridBenchmarks(quick bool, k int) []record {
	thr, m := int64(20), 16
	if quick {
		thr, m = 12, 10
	}
	skew := benchcrn.SkewGrid(thr, m)
	skewRoot := skew.MustInitialConfig(vec.New(thr))
	zero := func(x []int64) int64 { return 0 }
	alone := measure(fmt.Sprintf("checkinput_skewgrid_m%d_large_alone", m), k, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := reach.CheckInput(skewRoot, 0)
			if !v.OK {
				b.Fatalf("skew large input refuted: %+v", v)
			}
		}
	})
	out := []record{alone}
	for _, workers := range []int{1, 0} {
		rec := measure(fmt.Sprintf("checkgrid_skewgrid_1large_%dsmall_workers%d", thr, workers), k, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := reach.CheckGrid(skew, zero, []int64{0}, []int64{thr}, reach.WithWorkers(workers))
				if err != nil || !res.OK() {
					b.Fatalf("%v %v", err, res)
				}
			}
		})
		if workers == 0 {
			rec.Extra = withExtra(rec.Extra, "vs_large_alone", rec.NsPerOp/alone.NsPerOp)
		}
		out = append(out, rec)
	}
	return out
}

// withExtra sets key in the (possibly nil) extra-metric map.
func withExtra(extra map[string]float64, key string, v float64) map[string]float64 {
	if extra == nil {
		extra = make(map[string]float64)
	}
	extra[key] = v
	return extra
}

func simSuite(quick bool) suiteReport {
	rep := newReport("sim", quick)
	steps := int64(100_000)
	n := int64(10_000)
	if quick {
		steps, n = 10_000, 1_000
	}
	k := samples(quick)

	ring := benchcrn.Ring(128)
	ringStart := ring.MustInitialConfig(vec.New(64))
	rep.Benchmarks = append(rep.Benchmarks, measure("gillespie_ring128_incremental", k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			res := sim.Gillespie(ringStart, sim.WithSeed(uint64(i)+1), sim.WithMaxSteps(steps))
			fired += res.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/step")
	}))

	rep.Benchmarks = append(rep.Benchmarks, measure("gillespie_ring128_full_recompute_baseline", k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			fired += benchcrn.GillespieFullRecompute(ringStart, steps, uint64(i)+1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/step")
	}))

	rep.Benchmarks = append(rep.Benchmarks, measure("fairrandom_ring128_incremental", k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			res := sim.FairRandom(ringStart, sim.WithSeed(uint64(i)+1), sim.WithMaxSteps(steps))
			fired += res.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/step")
	}))

	rep.Benchmarks = append(rep.Benchmarks, measure("fairrandom_ring128_full_walk_baseline", k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			fired += benchcrn.FairRandomFullWalk(ringStart, steps, uint64(i)+1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/step")
	}))

	start := benchcrn.Max().MustInitialConfig(vec.New(n, n))
	rep.Benchmarks = append(rep.Benchmarks, measure(fmt.Sprintf("gillespie_max_n%d", n), k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			res := sim.Gillespie(start, sim.WithSeed(uint64(i)))
			fired += res.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/step")
		b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "reactions/s")
	}))

	rep.Benchmarks = append(rep.Benchmarks, measure(fmt.Sprintf("fairrandom_max_n%d", n), k, func(b *testing.B) {
		b.ReportAllocs()
		var fired int64
		for i := 0; i < b.N; i++ {
			res := sim.FairRandom(start, sim.WithSeed(uint64(i)))
			fired += res.Steps
		}
		b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "reactions/s")
	}))
	return rep
}
