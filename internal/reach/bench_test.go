// Benchmarks for the reachability engine, measured on the paper's Fig 4a
// general construction — the hottest workload in the module. The baseline
// benchmarks reimplement the original string-keyed explorer (fmt-built map
// keys, per-config Clone, slice-of-slice edges) so the win of the arena +
// hash-interning + CSR engine stays measurable in-tree.
//
// This lives in package reach_test because building the Fig 4a CRN needs
// internal/synth, which depends on reach via classify/witness.
package reach_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"crncompose/internal/benchcrn"
	"crncompose/internal/classify"
	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/semilinear"
	"crncompose/internal/synth"
	"crncompose/internal/vec"
)

var fig4aOnce = sync.OnceValues(func() (*crn.CRN, error) {
	f := semilinear.Fig4a()
	c, _, err := synth.General(f, synth.GeneralOptions{
		Classify: classify.Options{Bound: 8},
		N:        2,
	})
	return c, err
})

func fig4aCRN(tb testing.TB) *crn.CRN {
	c, err := fig4aOnce()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// exploreStringKeyed is the pre-rewrite engine: map[string]int32 keyed by
// Config.Key(), a cloned Config per explored node, and append-built
// [][]int32 edge lists. Kept verbatim-in-spirit as the benchmark baseline.
func exploreStringKeyed(root crn.Config, maxConfigs int, maxCount int64) (configs []crn.Config, complete bool) {
	ids := make(map[string]int32, 1024)
	var succ, via, pred [][]int32
	complete = true

	add := func(c crn.Config) int32 {
		key := c.Key()
		if id, ok := ids[key]; ok {
			return id
		}
		id := int32(len(configs))
		ids[key] = id
		configs = append(configs, c)
		succ = append(succ, nil)
		via = append(via, nil)
		pred = append(pred, nil)
		return id
	}

	add(root.Clone())
	numReactions := len(root.CRN().Reactions)
	for head := 0; head < len(configs); head++ {
		if len(configs) > maxConfigs {
			complete = false
			break
		}
		cur := configs[head]
		for ri := 0; ri < numReactions; ri++ {
			if !cur.Applicable(ri) {
				continue
			}
			next := cur.Clone()
			next.ApplyInPlace(ri)
			if next.CountsRef().MaxComponent() > maxCount {
				complete = false
				continue
			}
			nid := add(next)
			succ[head] = append(succ[head], nid)
			via[head] = append(via[head], int32(ri))
		}
	}
	for u := range succ {
		for _, v := range succ[u] {
			pred[v] = append(pred[v], int32(u))
		}
	}
	return configs, complete
}

// benchExplore runs fn (an explorer returning the number of configurations
// it visited) and reports both ns/op and heap allocations per explored
// configuration — the metric the engine rewrite targets.
func benchExplore(b *testing.B, fn func() int) {
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	var configs int
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		configs = fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if configs == 0 {
		b.Fatal("explored nothing")
	}
	b.ReportMetric(float64(configs), "configs")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N)/float64(configs), "allocs/config")
}

func BenchmarkExploreFig4a(b *testing.B) {
	c := fig4aCRN(b)
	root := c.MustInitialConfig(vec.New(1, 1))
	benchExplore(b, func() int {
		g := reach.Explore(root, reach.WithMaxConfigs(1<<23), reach.WithWorkers(1))
		if !g.Complete {
			b.Fatal("incomplete")
		}
		return g.NumConfigs()
	})
}

func benchExploreFig4aWorkers(b *testing.B, workers int) {
	c := fig4aCRN(b)
	root := c.MustInitialConfig(vec.New(1, 1))
	benchExplore(b, func() int {
		g := reach.Explore(root, reach.WithMaxConfigs(1<<23), reach.WithWorkers(workers))
		if !g.Complete {
			b.Fatal("incomplete")
		}
		return g.NumConfigs()
	})
}

func BenchmarkExploreFig4aParallel2(b *testing.B) { benchExploreFig4aWorkers(b, 2) }
func BenchmarkExploreFig4aParallel4(b *testing.B) { benchExploreFig4aWorkers(b, 4) }
func BenchmarkExploreFig4aParallel8(b *testing.B) { benchExploreFig4aWorkers(b, 8) }

// TestExploreFig4aParallelIdentical pins the tentpole contract on the real
// workload: the parallel engine's graph on the Fig 4a general construction
// at x=(1,1) (86,780 configurations) is indistinguishable from the
// sequential engine's through every accessor, and its edges are exactly
// the ones its rows rebuild.
func TestExploreFig4aParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4a exploration skipped in -short")
	}
	c := fig4aCRN(t)
	root := c.MustInitialConfig(vec.New(1, 1))
	seq := reach.Explore(root, reach.WithMaxConfigs(1<<23), reach.WithWorkers(1))
	par := reach.Explore(root, reach.WithMaxConfigs(1<<23), reach.WithWorkers(8))
	if !seq.Complete || !par.Complete {
		t.Fatal("exploration incomplete")
	}
	if seq.NumConfigs() != par.NumConfigs() {
		t.Fatalf("configs: sequential %d, parallel %d", seq.NumConfigs(), par.NumConfigs())
	}
	for id := int32(0); id < int32(seq.NumConfigs()); id++ {
		if !slices.Equal(seq.Counts(id), par.Counts(id)) {
			t.Fatalf("config %d: counts %v vs %v", id, seq.Counts(id), par.Counts(id))
		}
		if seq.Parent(id) != par.Parent(id) {
			t.Fatalf("config %d: BFS tree differs", id)
		}
	}
	// CSR out-edges, BFS tree edges and their reactions, and the arena.
	reach.RequireGraphsIdentical(t, seq, par)
	reach.RequireSuccFromRows(t, seq)
}

// TestExploreFig4aMatchesNaive compares both engines with the naive
// exploration (explore_reference_test.go) on the Fig 4a construction at
// x=(0,1).
func TestExploreFig4aMatchesNaive(t *testing.T) {
	reach.RequireExploreMatchesNaive(t, fig4aCRN(t).MustInitialConfig(vec.New(0, 1)), reach.WithMaxConfigs(1<<23))
}

// TestVerdictPassMatchesReferenceFig4a compares the verdict pass with the
// three-pass reference on the Fig 4a construction at x=(1,1).
func TestVerdictPassMatchesReferenceFig4a(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4a exploration skipped in -short")
	}
	g := reach.Explore(fig4aCRN(t).MustInitialConfig(vec.New(1, 1)), reach.WithMaxConfigs(1<<23))
	if !g.Complete {
		t.Fatal("exploration incomplete")
	}
	reach.RequireVerdictMatchesReference(t, g)
}

func BenchmarkExploreFig4aStringKeyed(b *testing.B) {
	c := fig4aCRN(b)
	root := c.MustInitialConfig(vec.New(1, 1))
	benchExplore(b, func() int {
		configs, complete := exploreStringKeyed(root, 1<<23, 1<<40)
		if !complete {
			b.Fatal("incomplete")
		}
		return len(configs)
	})
}

func BenchmarkCheckInputFig4a(b *testing.B) {
	c := fig4aCRN(b)
	f := semilinear.Fig4a()
	root := c.MustInitialConfig(vec.New(1, 1))
	want := f.Eval(vec.New(1, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := reach.CheckInput(root, want, reach.WithMaxConfigs(1<<23))
		if !v.OK {
			b.Fatal(v.Err)
		}
	}
}

func benchCheckGrid(b *testing.B, workers int) {
	c := fig4aCRN(b)
	f := semilinear.Fig4a()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := reach.CheckGrid(c,
			func(x []int64) int64 { return f.Eval(vec.New(x...)) },
			[]int64{0, 0}, []int64{1, 1},
			reach.WithMaxConfigs(1<<23), reach.WithWorkers(workers))
		if err != nil || !res.OK() {
			b.Fatalf("%v %v", err, res)
		}
	}
}

func BenchmarkCheckGridFig4aSequential(b *testing.B) { benchCheckGrid(b, 1) }

func BenchmarkCheckGridFig4aParallel(b *testing.B) { benchCheckGrid(b, 0) }

// BenchmarkCheckGridSkew measures the tail-latency shape the shared
// work-stealing pool targets: a grid of one 2^14-configuration straggler
// among 20 trivial inputs (benchcrn.SkewGrid), against checking the
// straggler alone at the same total worker budget. With the pool, grid and
// alone should be within ~1.5× of each other on multi-core hardware;
// the old static outer × inner split left the tail on a single worker.
func BenchmarkCheckGridSkew(b *testing.B) {
	const thr, m = 20, 14
	skew := benchcrn.SkewGrid(thr, m)
	zero := func(x []int64) int64 { return 0 }
	root := skew.MustInitialConfig(vec.New(thr))
	b.Run("grid-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := reach.CheckGrid(skew, zero, []int64{0}, []int64{thr}, reach.WithWorkers(1))
			if err != nil || !res.OK() {
				b.Fatalf("%v %v", err, res)
			}
		}
	})
	b.Run("grid-pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := reach.CheckGrid(skew, zero, []int64{0}, []int64{thr}, reach.WithWorkers(runtime.NumCPU()))
			if err != nil || !res.OK() {
				b.Fatalf("%v %v", err, res)
			}
		}
	})
	b.Run("large-alone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := reach.CheckInput(root, 0, reach.WithWorkers(runtime.NumCPU())); !v.OK {
				b.Fatalf("%+v", v)
			}
		}
	})
}
