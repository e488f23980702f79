// Package reach implements bounded exhaustive reachability analysis for
// discrete CRNs and the stable-computation verifier that mechanizes the
// definition in Section 2.2 of the paper:
//
//	A CRN C stably computes f if for each initial configuration I_x and
//	every configuration C reachable from I_x, a stable configuration O
//	with O(Y) = f(x) is reachable from C.
//
// The verifier enumerates the reachable configuration graph and decides the
// definition in one forward pass over its strongly connected components: a
// configuration is stable when the output reachable from its component is
// fixed, and the input is verified when every component can reach a correct
// stable one. Exploration is bounded; results
// distinguish "verified", "refuted (with witness)", and "inconclusive
// (budget exhausted)".
//
// # Engine
//
// This is the hottest path in the module: every synthesized CRN is model
// checked through Explore/CheckGrid. The explorer therefore avoids
// per-configuration allocation entirely. All explored configurations live in
// a byte arena, one row of d counts per configuration packed at the
// narrowest width of 1, 2, 4 or 8 bytes per count that holds every row
// (row.go), deduplicated with an open-addressing interning table keyed by
// a linear 64-bit hash of the counts — no string keys, no Config
// clones. The constructions' counts are tiny, so rows are usually one byte
// per count; an exploration widens every row the first time a count does
// not fit. A reaction changes few counts, so the successor kernel (succ.go)
// builds each successor's packed row by patching only the counts the
// reaction changes, in O(|Δ|), and its hash by adding the reaction's
// precomputed hash change. Each interned configuration also keeps
// a discovery record, its hash and its set of applicable reactions,
// derived from the head that discovered it by re-testing only the
// reactions the firing can enable or disable (crn.DependentsAt), so a head
// walks just the reactions that fire. Edges are stored in CSR form (one
// flat successor array plus per-node offsets), forward only; the one
// reaction kept per node is its BFS tree edge's.
//
// The arena grows in fixed-size chunks (intern.go), so growth never copies
// a row or a record, and each intern-table slot carries a 32-bit tag of its
// row's hash, so a probe reads a row only when the tags match. The Graph
// reads its rows from the arena's chunks; nothing copies them out.
//
// An exploration runs in a workspace that owns all of its buffers: the
// intern table and arena chunks, the CSR and BFS-tree arrays, the
// successor kernel and the verdict pass's arrays. CheckGrid gives each
// worker one workspace for the whole call, and each exploration resets it
// and writes into the capacity the earlier ones left, so a grid of many
// inputs of one CRN allocates only when an input outgrows every earlier
// one, and its workspaces die with the call. Explore and CheckInput run
// the same path in a fresh workspace.
//
// Parallelism is across grid inputs (grid.go): CheckGrid's worker budget
// (WithWorkers, default runtime.NumCPU) runs that many goroutines, each
// claiming whole inputs while any remain. One input's exploration always
// runs sequentially on the worker that claimed it, so a Graph is the same
// at every worker count by construction. Failure reporting is fully
// deterministic too: the reported failure is always the first failing
// input in grid order, with the same witness trace at any worker count.
package reach

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"crncompose/internal/crn"
	"crncompose/internal/progress"
	"crncompose/internal/vec"
)

// Options bound the exploration.
type Options struct {
	// MaxConfigs caps the number of distinct configurations explored.
	MaxConfigs int
	// MaxCount caps any single species count; exceeding it marks the run
	// inconclusive (the CRN may have unbounded reachable counts).
	MaxCount int64
	// Workers is CheckGrid's goroutine budget: that many workers claim
	// independent grid inputs, and each input is explored sequentially by
	// the worker that claimed it. Explore and CheckInput explore one input
	// and ignore it. Values < 1 mean runtime.NumCPU(); 1 checks the grid
	// on one goroutine. Results are byte-identical at every setting and
	// every claim schedule.
	Workers int
	// Progress, when non-nil, receives progress events from the calling
	// goroutine at the engine's deterministic barrier points: "reach.grid"
	// after every grid chunk, "reach.explore" every cancelCheckHeads heads
	// of a standalone exploration. Attaching a Reporter never changes any
	// computed result.
	Progress progress.Reporter

	// ctx is the run's cancellation context, attached only by the *Ctx
	// entry points so the context always arrives as an explicit parameter.
	// It is polled at the same deterministic points where Progress reports:
	// a canceled run returns a wrapped ctx.Err() and never a partial
	// verdict, and a run that completes is byte-identical to an
	// uncancellable one.
	ctx context.Context
}

// ctxErr polls the run's context; nil means "keep going". The returned
// error wraps ctx.Err(), so errors.Is(err, context.Canceled) (or
// DeadlineExceeded) holds for callers.
func (o *Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	select {
	case <-o.ctx.Done():
		return fmt.Errorf("reach: run canceled: %w", o.ctx.Err())
	default:
		return nil
	}
}

// cancelCheckHeads is the head-count stride between the explorer's
// cancellation polls and progress posts. Coarse enough that the poll is
// free, fine enough that cancellation lands within a bounded slice of
// exploration work.
const cancelCheckHeads = 1024

// Option mutates Options.
type Option func(*Options)

// WithMaxConfigs sets the configuration budget.
func WithMaxConfigs(n int) Option { return func(o *Options) { o.MaxConfigs = n } }

// WithMaxCount sets the per-species count cap.
func WithMaxCount(n int64) Option { return func(o *Options) { o.MaxCount = n } }

// WithWorkers sets how many grid inputs CheckGrid checks at once (see
// Options.Workers); one input's exploration is always sequential. n < 1
// selects runtime.NumCPU(); n == 1 forces fully sequential checking.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithProgress attaches a progress.Reporter to the run (see
// Options.Progress). The Reporter is called only from the goroutine that
// invoked the engine, at deterministic barrier points, and never changes
// the computed result.
func WithProgress(r progress.Reporter) Option { return func(o *Options) { o.Progress = r } }

// The budgets of a run no option sets; dist.NewCoordinator and serve's
// check key use them to match such a run.
const (
	DefaultMaxConfigs = 1 << 18
	DefaultMaxCount   = int64(1) << 40
)

func buildOptions(opts []Option) Options {
	o := Options{MaxConfigs: DefaultMaxConfigs, MaxCount: DefaultMaxCount, Workers: 0}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Workers < 1 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// ErrBudget is reported when exploration exhausts its budget before reaching
// a verdict.
var ErrBudget = errors.New("reach: exploration budget exhausted")

// Graph is the reachable configuration graph from a root configuration.
// Configuration counts are stored row-wise in the exploration's arena
// chunks, packed at the narrowest width that holds every row of the
// graph, and edges in CSR (compressed sparse row) form; use the accessor
// methods, which decode rows into memory the caller owns. Config id 0 is
// the root.
type Graph struct {
	CRN *crn.CRN
	// Complete is false if the budget was exhausted (the graph is a prefix).
	Complete bool

	rowChunks     // n rows of d counts packed at width w, in the arena's chunks
	outIdx    int // dense index of the output species

	succ    []int32 // successor config ids, grouped by source node in reaction order
	succOff []int32 // len n+1; node u's out-edges are succ[succOff[u]:succOff[u+1]]

	// parent and parentVia give one BFS tree edge per node for trace
	// extraction (-1 for the root).
	parent    []int32
	parentVia []int32
}

// NumConfigs returns the number of explored configurations.
func (g *Graph) NumConfigs() int { return len(g.parent) }

// Counts decodes the count row of configuration id into a new row the
// caller owns.
func (g *Graph) Counts(id int32) vec.V {
	counts := make(vec.V, g.d)
	unpackRow(counts, g.row(id), g.w)
	return counts
}

// Config returns configuration id as a crn.Config the caller owns.
func (g *Graph) Config(id int32) crn.Config { return g.CRN.DenseConfig(g.Counts(id)) }

// Root returns the root configuration (id 0).
func (g *Graph) Root() crn.Config { return g.Config(0) }

// Output returns the output count of configuration id, decoding only that
// field.
func (g *Graph) Output(id int32) int64 { return unpackCount(g.row(id), g.w, g.outIdx) }

// Parent returns the BFS-tree parent of id (-1 for the root).
func (g *Graph) Parent(id int32) int32 { return g.parent[id] }

// Explore enumerates the configurations reachable from root. An
// exploration always runs on one goroutine, whatever the worker budget
// (WithWorkers parallelizes CheckGrid across inputs), so the Graph, and
// with it verdicts, witness traces and ids, never depends on the worker
// count.
func Explore(root crn.Config, opts ...Option) *Graph {
	o := buildOptions(opts)
	g, _ := explore(newWorkspace(root.CRN()), root, o) // no ctx attached: cannot fail
	return g
}

// workspace owns the buffers of one exploration and its verdict pass: the
// interner's table and arena chunks, the CSR and BFS-tree arrays, the
// successor kernel, and condense's arrays and stacks. Each exploration in
// a workspace resets them and reuses their capacity, so a grid worker
// that checks many inputs of one CRN allocates only when an input
// outgrows every earlier one. A Graph explored in a workspace, and a
// condensation computed in it, share its buffers and are valid only until
// the workspace's next exploration. A workspace serves one CRN and one
// goroutine at a time; CheckGrid makes one per worker and drops them when
// it returns.
type workspace struct {
	in interner
	k  *succKernel

	succ, succOff, parent, parentVia []int32

	rindex []int32
	lo, hi []int64
	can    []bool
	call   []sccFrame
	open   []int32
}

func newWorkspace(c *crn.CRN) *workspace {
	return &workspace{
		in: interner{chunkedArena: *newChunkedArena(c.NumSpecies(), 1, setWords(c.NumReactions()))},
		k:  newSuccKernel(c),
	}
}

// explore is the explorer: a FIFO BFS interning rows into ws's chunked
// arena (intern.go), widened as soon as a row needs it. Every interned row
// is a row of the graph, so the arena's width is the graph's, and the
// Graph reads its rows from the arena's chunks. Cancellation is polled on
// entry and every cancelCheckHeads heads — a deterministic boundary, so
// every completed run is identical to an uncancellable one. A non-nil
// error is always a cancellation (wrapped ctx.Err()) and comes with a nil
// graph.
func explore(ws *workspace, root crn.Config, o Options) (*Graph, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	c := root.CRN()
	g := &Graph{CRN: c, Complete: true, outIdx: c.OutputIndex()}
	rootPacked, w, rootHash, rootSet := packRoot(root)
	in, k := &ws.in, ws.k
	in.reset(w)
	k.maxCount = o.MaxCount
	in.lookupOrAdd(rootPacked, rootHash)
	_, rset := in.record(0)
	copy(rset, rootSet)
	succ, succOff := ws.succ[:0], append(ws.succOff[:0], 0)
	parent, parentVia := append(ws.parent[:0], -1), append(ws.parentVia[:0], -1)

	for head := int32(0); int(head) < in.n; head++ {
		if head%cancelCheckHeads == 0 && head > 0 {
			// Post before polling so a cancellation triggered by the
			// reporter itself is honored at this barrier, not the next.
			progress.Post(o.Progress, "reach.explore", int64(in.n), 0)
			if err := o.ctxErr(); err != nil {
				return nil, err
			}
		}
		if in.n > o.MaxConfigs {
			g.Complete = false
			break
		}
		hh, hset := in.record(head)
		k.load(in.row(head), in.w, *hh, hset)
		for wi, word := range k.set {
			for ; word != 0; word &= word - 1 {
				ri := wi<<6 | bits.TrailingZeros64(word)
				h, over, need := k.next(ri)
				if over {
					g.Complete = false
					continue
				}
				if need > 0 {
					// The successor does not fit the arena: widen every row,
					// reload the head at the new width and build it again.
					in.widen(need)
					k.load(in.row(head), in.w, *hh, hset)
					h, _, _ = k.next(ri)
				}
				nid, added := in.lookupOrAdd(k.out, h)
				if added {
					_, set := in.record(nid)
					k.nextSet(set, ri)
					parent = append(parent, head)
					parentVia = append(parentVia, int32(ri))
				}
				succ = append(succ, nid)
			}
		}
		succOff = append(succOff, int32(len(succ)))
	}
	// Close the offset table over nodes that were discovered but never
	// expanded (budget exhaustion leaves a frontier).
	for len(succOff) < in.n+1 {
		succOff = append(succOff, int32(len(succ)))
	}
	g.rowChunks = in.rowChunks
	g.succ, g.succOff, g.parent, g.parentVia = succ, succOff, parent, parentVia
	ws.succ, ws.succOff, ws.parent, ws.parentVia = succ, succOff, parent, parentVia
	return g, nil
}

// TraceTo reconstructs a reaction trace from the root to config id using the
// BFS tree.
func (g *Graph) TraceTo(id int32) crn.Trace {
	var rev []int
	for cur := id; cur != 0; cur = g.parent[cur] {
		rev = append(rev, int(g.parentVia[cur]))
	}
	seq := make([]int, len(rev))
	for i := range rev {
		seq[i] = rev[len(rev)-1-i]
	}
	return crn.Trace{Start: g.Root(), Reactions: seq}
}

// condensation is the result of the verdict pass over a graph: its
// strongly connected components, each named by its root, the member the
// search reached first.
type condensation struct {
	root   []int32 // root[v] is the root of configuration v's component
	lo, hi []int64 // at a root: the least and greatest output reachable from its component
	can    []bool  // at a root: its component can reach a stable configuration with output want
}

// condense is the one verdict pass: Tarjan's strongly connected components
// (SIAM J. Comput. 1972) in Pearce's one-word-per-node form (IPL 2016),
// written iteratively so a graph millions of configurations deep cannot
// overflow the stack. When a component is completed every successor
// component already is, so its reachable output bounds are the min and max
// over its members' outputs and its successor components' bounds, and it
// can reach a correct stable configuration if it is one (bounds equal to
// want) or a successor component can. Every configuration is reachable from
// the root, so one search from id 0 visits the whole graph. The pass runs
// in ws's arrays and stacks, and the condensation it returns holds them
// until ws's next pass.
func (g *Graph) condense(want int64, ws *workspace) condensation {
	n := g.NumConfigs()
	// rindex[v] is 0 until v is visited, then the least visit index v is
	// known to reach while its component is open, then -1 minus its
	// component's root once that is complete.
	ws.rindex = zeroed(ws.rindex, n)
	rindex := ws.rindex
	// lo[v], hi[v] and can[v] start at v's own output and take in each
	// complete component v has an edge to. A node that is not its
	// component's root hands them to its parent, which is in the same
	// component, so at the root they cover the component.
	ws.lo, ws.hi, ws.can = zeroed(ws.lo, n), zeroed(ws.hi, n), zeroed(ws.can, n)
	cd := condensation{lo: ws.lo, hi: ws.hi, can: ws.can}
	lo, hi, can := cd.lo, cd.hi, cd.can
	for v := range lo {
		lo[v] = g.Output(int32(v))
		hi[v] = lo[v]
	}
	call := ws.call[:0]
	open := ws.open[:0] // finished nodes whose component is still open
	succ, succOff := g.succ, g.succOff
	index := int32(0)
	for next := int32(0); ; {
		if next >= 0 {
			index++
			rindex[next] = index
			call = append(call, sccFrame{v: next, e: succOff[next], root: true})
		}
		f := &call[len(call)-1]
		v := f.v
		next = -1
		for ; f.e < succOff[v+1]; f.e++ {
			w := succ[f.e]
			r := rindex[w]
			if r == 0 {
				next = w // the edge is taken again once w is finished
				break
			}
			if r < 0 {
				c := -r - 1
				lo[v], hi[v], can[v] = min(lo[v], lo[c]), max(hi[v], hi[c]), can[v] || can[c]
			} else if r < rindex[v] {
				rindex[v], f.root = r, false
			}
		}
		if next >= 0 {
			continue
		}
		root := f.root
		call = call[:len(call)-1]
		open = append(open, v)
		if !root {
			p := call[len(call)-1].v
			lo[p], hi[p], can[p] = min(lo[p], lo[v]), max(hi[p], hi[v]), can[p] || can[v]
			continue
		}
		// v and the nodes finished since it was visited are its component.
		k := len(open) - 1
		for k > 0 && rindex[open[k-1]] >= rindex[v] {
			k--
		}
		for _, u := range open[k:] {
			rindex[u] = -v - 1
		}
		open = open[:k]
		can[v] = can[v] || lo[v] == hi[v] && lo[v] == want
		if len(call) == 0 {
			break
		}
	}
	for v, r := range rindex {
		rindex[v] = -r - 1
	}
	ws.call, ws.open = call, open
	cd.root = rindex
	return cd
}

// sccFrame is one call of condense's iterative depth-first search.
type sccFrame struct {
	v, e int32 // the node and its next out-edge
	root bool  // no out-edge has led below v's own visit index
}

// StableIDs returns the ids of the stable configurations in g: those whose
// output count cannot change in any configuration reachable from them, read
// off the verdict pass (condense). Only meaningful when g.Complete
// (otherwise it is an under-approximation computed on the explored prefix).
func (g *Graph) StableIDs() []int32 {
	cd := g.condense(-1, new(workspace)) // outputs are never negative: no component is correct
	var out []int32
	for v, r := range cd.root {
		if cd.lo[r] == cd.hi[r] {
			out = append(out, int32(v))
		}
	}
	return out
}

// Verdict is the result of a stable-computation check for one input.
type Verdict struct {
	// OK reports that the property was verified.
	OK bool
	// Inconclusive reports the budget ran out before a verdict.
	Inconclusive bool
	// Err describes the refutation when OK is false and Inconclusive is
	// false.
	Err error
	// Witness, when non-nil, is a trace from the initial configuration to a
	// configuration that refutes the property (e.g. one from which no
	// correct stable configuration is reachable, or one that overproduces
	// output for an output-oblivious CRN).
	Witness *crn.Trace
	// Explored is the number of configurations visited.
	Explored int
}

// CheckInput verifies that the CRN stably computes the value want on the
// given initial configuration. It implements the literal Section 2.2
// definition on the bounded reachability graph.
func CheckInput(root crn.Config, want int64, opts ...Option) Verdict {
	o := buildOptions(opts)
	v, _ := checkInput(newWorkspace(root.CRN()), root, want, o) // no ctx: cannot fail
	return v
}

// checkInput runs the stable-computation check on the given engine
// options, exploring and condensing in ws. The Verdict shares no memory
// with ws. A non-nil error is always a cancellation and comes with a zero
// Verdict.
func checkInput(ws *workspace, root crn.Config, want int64, o Options) (Verdict, error) {
	g, err := explore(ws, root, o)
	if err != nil {
		return Verdict{}, err
	}
	if !g.Complete {
		return Verdict{Inconclusive: true, Explored: g.NumConfigs(), Err: ErrBudget}, nil
	}
	// The verdict pass is bounded by the explored graph, but on big graphs
	// it is a visible slice of work; poll once before it so cancellation
	// still lands within one pass.
	if err := o.ctxErr(); err != nil {
		return Verdict{}, err
	}
	cd := g.condense(want, ws)
	n := g.NumConfigs()
	if !cd.can[0] { // id 0, where the search starts, roots its component
		// Every configuration is reachable from the root, so a root that
		// cannot reach a correct stable configuration means none exists.
		// Prefer an overproduction witness if one exists: a config whose
		// output already exceeds want and can never come back down (always
		// true for output-oblivious CRNs).
		for i := 0; i < n; i++ {
			if y := g.Output(int32(i)); y > want {
				tr := g.TraceTo(int32(i))
				return Verdict{
					OK:       false,
					Err:      fmt.Errorf("reach: no correct stable configuration; output overshoots to %d (want %d)", y, want),
					Witness:  &tr,
					Explored: n,
				}, nil
			}
		}
		return Verdict{
			OK:       false,
			Err:      fmt.Errorf("reach: no stable configuration with output %d is reachable", want),
			Explored: n,
		}, nil
	}
	for i, r := range cd.root {
		if !cd.can[r] {
			tr := g.TraceTo(int32(i))
			return Verdict{
				OK: false,
				Err: fmt.Errorf("reach: configuration %s is reachable but cannot reach a stable configuration with output %d",
					g.Config(int32(i)), want),
				Witness:  &tr,
				Explored: n,
			}, nil
		}
	}
	return Verdict{OK: true, Explored: n}, nil
}

// Func is an integer-valued function f : N^d -> N given as an evaluator.
type Func func(x []int64) int64

// gridJob is one grid input with its root configuration and expected output,
// prepared sequentially so f is never called concurrently.
type gridJob struct {
	x    []int64
	root crn.Config
	want int64
}

// CheckGrid verifies stable computation of f on every input lo ≤ x ≤ hi.
// It returns the first failing verdict (in lexicographic grid order)
// together with the offending input, or an all-OK summary. A grid that
// GridPoints rejects — wrong arity, an empty axis (hi < lo), more points
// than int64 holds — is an error, and nothing is checked.
//
// Independent inputs are checked concurrently (see WithWorkers): workers
// claim whole inputs while any remain, and each explores its input
// sequentially. The grid is enumerated
// lazily in bounded chunks, so memory stays O(workers) regardless of grid
// size and a failure in an early chunk stops the run without evaluating f on
// the rest of the grid. f is only invoked from the calling goroutine, so it
// need not be safe for concurrent use. Results are deterministic:
// concurrency never changes which failure is reported or the counts for
// inputs preceding it.
func CheckGrid(c *crn.CRN, f Func, lo, hi []int64, opts ...Option) (GridResult, error) {
	return checkGrid(c, f, lo, hi, buildOptions(opts))
}

// CheckGridCtx is CheckGrid under a cancellation context. The context is
// polled only at grid-chunk boundaries and at the explorer's own barrier
// points, so a run that completes returns exactly CheckGrid's result at any
// worker count; a canceled run returns a zero GridResult and a wrapped
// ctx.Err(), never partial counts. Grid validation is CheckGrid's: an empty
// axis is an error here too.
func CheckGridCtx(ctx context.Context, c *crn.CRN, f Func, lo, hi []int64, opts ...Option) (GridResult, error) {
	o := buildOptions(opts)
	o.ctx = ctx
	return checkGrid(c, f, lo, hi, o)
}

func checkGrid(c *crn.CRN, f Func, lo, hi []int64, o Options) (GridResult, error) {
	total, err := GridPoints(c.Dim(), lo, hi)
	if err != nil {
		return GridResult{}, err
	}

	// Lazily enumerate the grid in lexicographic order, materializing roots
	// and expected outputs chunk by chunk. An enumeration error (bad initial
	// configuration or negative f) stops enumeration; inputs before it are
	// still checked, matching the sequential semantics.
	x := append([]int64(nil), lo...)
	done := false
	var enumErr error
	nextChunk := func(limit int) []gridJob {
		var jobs []gridJob
		for !done && enumErr == nil && len(jobs) < limit {
			root, err := c.InitialConfig(x)
			if err != nil {
				enumErr = err
				break
			}
			want := f(x)
			if want < 0 {
				enumErr = fmt.Errorf("reach: f%v = %d is negative", x, want)
				break
			}
			jobs = append(jobs, gridJob{x: append([]int64(nil), x...), root: root, want: want})
			// Advance odometer.
			i := len(x) - 1
			for i >= 0 {
				x[i]++
				if x[i] <= hi[i] {
					break
				}
				x[i] = lo[i]
				i--
			}
			if i < 0 {
				done = true
			}
		}
		return jobs
	}

	res := GridResult{}
	// Per-input options drop the Reporter: grid progress is posted here, at
	// chunk boundaries, from the calling goroutine only — never from the
	// concurrently exploring workers.
	io := o
	io.Progress = nil
	chunkSize := max(64, 8*o.Workers)
	// Worker k explores in workspace k in every chunk.
	wss := make([]*workspace, o.Workers)
	for k := range wss {
		wss[k] = newWorkspace(c)
	}
	for {
		// The chunk boundary is the grid check's deterministic cancellation
		// point: a canceled run stops here (or at a worker's own poll inside
		// an exploration) and reports no partial counts.
		if err := o.ctxErr(); err != nil {
			return GridResult{}, err
		}
		jobs := nextChunk(chunkSize)
		verdicts, err := runGridJobs(jobs, io, wss)
		if err != nil {
			return GridResult{}, err
		}
		for i, job := range jobs {
			if !res.Fold(job.result(verdicts[i])) {
				return res, nil
			}
		}
		progress.Post(o.Progress, "reach.grid", int64(res.Checked), total)
		if done || enumErr != nil {
			return res, enumErr
		}
	}
}

// result is the one-input GridResult of verdict v on this grid input.
func (job gridJob) result(v Verdict) GridResult {
	r := GridResult{Checked: 1, Explored: v.Explored}
	switch {
	case v.Inconclusive:
		r.Inconclusive = 1
	case !v.OK:
		r.Failure = &GridFailure{Input: job.x, Want: job.want, Verdict: v}
	}
	return r
}

// Cube returns the per-axis bounds of the grid [lo, hi]^d.
func Cube(d int, lo, hi int64) (los, his []int64) {
	los, his = make([]int64, d), make([]int64, d)
	for i := range los {
		los[i], his[i] = lo, hi
	}
	return los, his
}

// GridPoints validates the grid lo ≤ x ≤ hi of a d-input CRN and returns
// its number of points. It rejects an arity mismatch, an empty axis
// (hi < lo), and a grid whose axis extent or point count overflows int64.
// A 0-arity grid has one point, the empty input. CheckGrid applies it
// before enumerating anything, so every caller that sizes or splits a grid
// with it agrees with the engine on which grids exist.
func GridPoints(d int, lo, hi []int64) (int64, error) {
	if len(lo) != d || len(hi) != d {
		return 0, fmt.Errorf("reach: grid arity %d/%d does not match CRN arity %d", len(lo), len(hi), d)
	}
	n := int64(1)
	for i := range lo {
		if hi[i] < lo[i] {
			return 0, fmt.Errorf("reach: empty grid axis %d: lo %d > hi %d", i, lo[i], hi[i])
		}
		// hi ≥ lo, so a nonpositive extent is a wrapped int64.
		ext := hi[i] - lo[i] + 1
		if ext <= 0 || n > math.MaxInt64/ext {
			return 0, fmt.Errorf("reach: grid %v..%v has more than %d points", lo, hi, int64(math.MaxInt64))
		}
		n *= ext
	}
	return n, nil
}

// GridResult summarizes a CheckGrid run. The JSON encoding is the wire form
// used by the distributed checker and by crncheck -json; decode with
// UnmarshalGridResult (the witness configurations need the CRN to rebind).
type GridResult struct {
	Checked      int          `json:"checked"`
	Inconclusive int          `json:"inconclusive"`
	Explored     int          `json:"explored"`
	Failure      *GridFailure `json:"failure,omitempty"`
}

// GridFailure records the first refuted input.
type GridFailure struct {
	Input   []int64 `json:"input"`
	Want    int64   `json:"want"`
	Verdict Verdict `json:"verdict"`
}

// OK reports whether every input verified (no failures; inconclusive inputs
// are tolerated and counted separately).
func (r GridResult) OK() bool { return r.Failure == nil }

// Outcome names how a grid check that returned r and err ended, as the
// outcome of the event instrumenting it: "error" (an enumeration error or
// a cancellation), "failure" (a refuted input) or "ok".
func Outcome(r GridResult, err error) string {
	switch {
	case err != nil:
		return "error"
	case !r.OK():
		return "failure"
	}
	return "ok"
}

// Fold adds next, the result of the grid segment that follows r's in
// canonical grid order, to r: counts sum, and the first failure ends the
// fold — it becomes r's failure, and later segments are not added. Fold
// reports whether the fold goes on (r is still OK). It is the one grid-order
// merge: CheckGrid folds its inputs with it and dist's coordinator its
// rectangles, so a grid split into contiguous segments merges to the bytes
// of one CheckGrid over the whole grid.
func (r *GridResult) Fold(next GridResult) bool {
	if !r.OK() {
		return false
	}
	r.Checked += next.Checked
	r.Inconclusive += next.Inconclusive
	r.Explored += next.Explored
	r.Failure = next.Failure
	return r.OK()
}

// String summarizes the result using the same field names as the JSON form.
func (r GridResult) String() string {
	if r.Failure != nil {
		return fmt.Sprintf("FAIL at input=%v (want %d): %v", r.Failure.Input, r.Failure.Want, r.Failure.Verdict.Err)
	}
	return fmt.Sprintf("ok: %d checked (%d inconclusive, %d explored)", r.Checked, r.Inconclusive, r.Explored)
}
