package reach

import (
	"sync"
	"sync/atomic"

	"crncompose/internal/crn"
	"crncompose/internal/progress"
	"crncompose/internal/vec"
)

// The parallel engine explores one input's state space on many cores while
// producing a Graph byte-identical to the sequential engine's. The sequential
// engine is a FIFO BFS, so its ids are assigned level by level, and within a
// level in (head order, reaction order) of first discovery. The parallel
// engine reproduces that order without serializing the hot work:
//
//  1. Expand the current frontier in parallel: workers claim batches of
//     frontier nodes, compute successors, and intern them in the sharded
//     table, recording per-node edge lists under provisional (interner) ids.
//     Interning order — and hence provisional ids — depends on scheduling.
//  2. Replay the level on the owner (cheap: no hashing, no row copies):
//     walk the frontier in canonical order and its recorded edges in
//     reaction order, assigning canonical ids at first discovery and
//     applying the MaxConfigs cut at the same head boundary the sequential
//     engine would. This renumbering makes every output array — arena rows,
//     CSR edges, BFS parents — independent of scheduling. It is one
//     sequential pass because splitting it across the pool with prefix sums
//     measured no faster on 2 CPUs.
//
// The set of workers expanding a level is dynamic: each level is published
// to a stealPool as a levelTask, the exploration's owner always works on it,
// and any idle pool worker may join mid-level and leave when the claim
// cursor runs out. Because a node's expansion record depends only on the
// node itself, joining and leaving workers — at any moment, in any
// combination — cannot change the records, only who computed them; the
// replay then erases the one thing scheduling does affect (provisional ids).
//
// Nodes interned during a level that the budget cut then discards are
// dropped by the renumbering (they simply never receive a canonical id), so
// budget-truncated graphs are also byte-identical to the sequential engine's.
//
// Rows are packed at the arena's width (row.go), fixed for the whole of a
// level. A worker whose successor does not fit records the width it needs
// and skips it; at the barrier the owner widens the arena and expands the
// same frontier again. Interned ids survive widening, and the second
// expansion's records are the ones any schedule would produce, because a
// node's record depends only on its row. The Graph's width is chosen
// during the final canonical copy from the rows the graph keeps, so a wide
// row that only the budget cut dropped does not widen it.

// levelEdge is one discovered edge: the provisional id of the successor and
// the reaction producing it.
type levelEdge struct {
	pid int32
	ri  int32
}

// levelResult is the expansion record of one frontier node.
type levelResult struct {
	edges    []levelEdge
	overflow bool // some successor exceeded MaxCount and was skipped
}

const (
	// stealMinFrontier is the smallest frontier published for stealing;
	// below it the owner expands inline without touching the pool.
	stealMinFrontier = 32
	// stealBatchDiv divides the frontier into claim batches so a late
	// joiner still finds work (capped at maxStealBatch nodes).
	stealBatchDiv = 32
	maxStealBatch = 256
)

// levelTask is one level's expansion, shared between its owner and any pool
// workers that steal into it. Claiming is a single atomic cursor over the
// frontier; results[j] is written by exactly one claimant.
type levelTask struct {
	c        *crn.CRN
	in       *shardedInterner
	frontier []int32
	results  []levelResult
	nR       int
	maxCount int64
	w        int // the arena's width for this level
	batch    int64
	next     atomic.Int64  // claim cursor over frontier
	done     atomic.Int64  // completed frontier nodes
	finished chan struct{} // closed when done == len(frontier); nil if unpublished
	// need is the widest width a successor needed beyond w (0 = none). Once
	// set, the level's records are void: claimants skip their remaining
	// nodes and the owner widens the arena and expands the level again.
	need atomic.Int32
}

// unclaimed reports whether frontier nodes remain to claim.
func (t *levelTask) unclaimed() bool { return t.next.Load() < int64(len(t.frontier)) }

// work claims batches of frontier nodes and expands them until the cursor
// is exhausted. Safe for any number of concurrent callers.
func (t *levelTask) work() {
	d := t.in.d
	cur := make([]int64, d)
	scratch := make([]int64, d)
	packed := make([]byte, d*t.w)
	// Edge records append into a worker-local buffer; per-node slices are
	// capped views into it. Capacity is topped up between nodes so one
	// node's edges never straddle a reallocation.
	var buf []levelEdge
	n := int64(len(t.frontier))
	for {
		if testStealJitter != nil {
			testStealJitter()
		}
		start := t.next.Add(t.batch) - t.batch
		if start >= n {
			return
		}
		end := min(start+t.batch, n)
		for j := start; j < end && t.need.Load() == 0; j++ {
			unpackRow(cur, t.in.arena.row(t.frontier[j]), t.w)
			if cap(buf)-len(buf) < t.nR {
				buf = make([]levelEdge, 0, max(1024, 4*t.nR))
			}
			first := len(buf)
			for ri := 0; ri < t.nR; ri++ {
				if !t.c.ApplicableAt(cur, ri) {
					continue
				}
				t.c.ApplyInto(scratch, cur, ri)
				if vec.V(scratch).MaxComponent() > t.maxCount {
					t.results[j].overflow = true
					continue
				}
				if !packRow(packed, scratch, t.w) {
					t.needWidth(int32(rowWidth(scratch)))
					continue
				}
				pid, _ := t.in.lookupOrAdd(packed, vec.Hash64(scratch))
				buf = append(buf, levelEdge{pid: pid, ri: int32(ri)})
			}
			t.results[j].edges = buf[first:len(buf):len(buf)]
		}
		if t.finished != nil && t.done.Add(end-start) == n {
			close(t.finished)
		}
	}
}

// needWidth raises t.need to at least w.
func (t *levelTask) needWidth(w int32) {
	for {
		cur := t.need.Load()
		if w <= cur || t.need.CompareAndSwap(cur, w) {
			return
		}
	}
}

// expandLevel expands every frontier node. With a pool attached and a
// frontier large enough to amortize the coordination, the level is published
// so idle pool workers can claim slices alongside the owner; the owner
// always participates and blocks until every claimed slice is complete. A
// successor too wide for the arena widens it, and the level is expanded
// again at the new width.
func expandLevel(c *crn.CRN, in *shardedInterner, frontier []int32, nR int, o Options, pool *stealPool) []levelResult {
	for {
		t := &levelTask{
			c: c, in: in, frontier: frontier,
			results:  make([]levelResult, len(frontier)),
			nR:       nR,
			maxCount: o.MaxCount,
			w:        in.arena.w,
		}
		if pool == nil || len(frontier) < stealMinFrontier {
			t.batch = int64(len(frontier))
			t.work()
		} else {
			t.batch = int64(max(1, min(maxStealBatch, len(frontier)/stealBatchDiv)))
			t.finished = make(chan struct{})
			pool.publish(t)
			t.work()
			<-t.finished
			pool.retract(t)
		}
		need := int(t.need.Load())
		if need == 0 {
			return t.results
		}
		in.arena.widen(need)
	}
}

// exploreParallel runs a standalone parallel exploration: a private pool
// whose o.Workers-1 helpers drain level tasks while the calling goroutine
// owns the exploration.
func exploreParallel(root crn.Config, o Options) (*Graph, error) {
	pool := newStealPool()
	pool.addOwner()
	var wg sync.WaitGroup
	for w := 1; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.drain()
		}()
	}
	g, err := explorePooled(root, o, pool)
	// dropOwner + Wait run on the error path too: a canceled exploration
	// abandons no published tasks (the owner only returns at a level
	// barrier), so the helpers always drain and exit.
	pool.dropOwner()
	wg.Wait()
	return g, err
}

// replayState is the canonical-renumbering state threaded across levels.
type replayState struct {
	// canon maps provisional ids to canonical ids (-1 = not yet discovered in
	// canonical order); provOf is the inverse, in canonical order.
	canon     []int32
	provOf    []int32
	succOff   []int32
	ncanon    int  // canonical ids assigned so far
	truncated bool // MaxConfigs cut hit mid-level
}

// explorePooled is the renumbering engine: it enumerates the reachable
// configurations level-synchronized, expanding each level with the help of
// whatever pool workers are idle, and replays every level into canonical ids
// on the owner (replayLevelSeq). The caller must hold an owner registration
// on pool for the duration of the call.
//
// Cancellation is polled once per level, at the barrier before expansion —
// the exact point where the sequential engine's head boundary falls — so a
// canceled exploration returns a nil graph and a wrapped ctx.Err() within
// one level of work, and a completed one is byte-identical to an
// uncancellable run.
func explorePooled(root crn.Config, o Options, pool *stealPool) (*Graph, error) {
	c := root.CRN()
	d := c.NumSpecies() // also forces the CRN index build before workers start
	g := &Graph{CRN: c, Complete: true, d: d, outIdx: c.OutputIndex()}
	nR := c.NumReactions()

	rootRow := root.CountsRef()
	in := newShardedInterner(d, rowWidth(rootRow))
	rootPacked := make([]byte, d*in.arena.w)
	packRow(rootPacked, rootRow, in.arena.w)
	in.lookupOrAdd(rootPacked, vec.Hash64(rootRow))

	st := &replayState{
		canon:   make([]int32, 1, 1024),
		provOf:  make([]int32, 1, 1024),
		succOff: make([]int32, 1, 1024),
		ncanon:  1,
	}
	g.parent = append(g.parent, -1)
	g.parentVia = append(g.parentVia, -1)

	frontier := []int32{0} // provisional ids of the current level, canonical order
	frontCanonStart := 0   // canonical id of frontier[0]

	for len(frontier) > 0 && !st.truncated {
		// Post before polling so a cancellation triggered by the reporter
		// itself is honored at this barrier, not the next.
		progress.Post(o.Progress, "reach.explore", int64(st.ncanon), 0)
		if err := o.ctxErr(); err != nil {
			return nil, err
		}
		// ncanon here counts every node through the end of this frontier, so
		// if it already exceeds the budget the replay below would truncate at
		// j=0 — the sequential engine stops at the same head. Bail before
		// paying for a full level of expansion that would all be discarded.
		if st.ncanon > o.MaxConfigs {
			g.Complete = false
			break
		}
		results := expandLevel(c, in, frontier, nR, o, pool)
		for len(st.canon) < in.n() {
			st.canon = append(st.canon, -1)
		}
		next := replayLevelSeq(g, st, frontier, results, frontCanonStart, o.MaxConfigs)
		frontCanonStart += len(frontier)
		frontier = next
	}

	// Close the offset table over discovered-but-unexpanded nodes, then copy
	// the surviving rows into a flat arena in canonical order, at the
	// narrowest width that holds them.
	for len(st.succOff) < st.ncanon+1 {
		st.succOff = append(st.succOff, int32(len(g.succ)))
	}
	g.succOff = st.succOff
	aw := in.arena.w
	g.w = 1
	for _, pid := range st.provOf[:st.ncanon] {
		if g.w == aw {
			break
		}
		g.w = max(g.w, packedWidth(in.arena.row(pid), aw))
	}
	rb := d * g.w
	g.arena = make([]byte, st.ncanon*rb)
	for cid, pid := range st.provOf[:st.ncanon] {
		repack(g.arena[cid*rb:(cid+1)*rb], in.arena.row(pid), aw, g.w)
	}
	return g, nil
}

// replayLevelSeq is the renumbering replay: walk the frontier in
// canonical order and each node's recorded edges in reaction order, assigning
// canonical ids at first discovery, applying the MaxConfigs cut at the same
// head boundary the sequential engine would. Returns the next frontier
// (provisional ids in canonical order).
func replayLevelSeq(g *Graph, st *replayState, frontier []int32, results []levelResult, frontCanonStart, maxConfigs int) []int32 {
	var next []int32
	for j := range frontier {
		if st.ncanon > maxConfigs {
			g.Complete = false
			st.truncated = true
			break
		}
		u := int32(frontCanonStart + j)
		r := &results[j]
		if r.overflow {
			g.Complete = false
		}
		for _, e := range r.edges {
			cid := st.canon[e.pid]
			if cid < 0 {
				cid = int32(st.ncanon)
				st.ncanon++
				st.canon[e.pid] = cid
				st.provOf = append(st.provOf, e.pid)
				g.parent = append(g.parent, u)
				g.parentVia = append(g.parentVia, e.ri)
				next = append(next, e.pid)
			}
			g.succ = append(g.succ, cid)
		}
		st.succOff = append(st.succOff, int32(len(g.succ)))
	}
	return next
}
