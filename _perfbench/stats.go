package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// minTail is how many samples a reported percentile needs beyond it: the
// 90th percentile of fewer than 100 samples is not reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted and
// whether at least minTail samples lie beyond it. A percentile with a
// thinner tail is not reportable.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := max(int(math.Ceil(q*float64(n)))-1, 0)
	return sorted[idx], n-1-idx >= minTail
}

// median is the middle of xs (mean of the two middle values for even
// lengths), with no tail requirement: for internal ratios, not for
// reported latencies. Zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, zero for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open [start, end) span of wall-clock nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if s, e := max(iv.start, lo), min(iv.end, hi); e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfTime is parent's duration minus the part of it that the union of
// its children's intervals covers, so overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}

// deck orders a multiset of pool indices for a seeded request stream:
// operation i draws slots[perm[i%len]], where perm is a permutation drawn
// from the seed and the round i/len. Every round holds each slot exactly
// once, so the mix is exact over whole rounds and only the order depends
// on the seed. A fixed deck repeats its first round's order forever.
type deck struct {
	slots []int
	seed  uint64
	fixed bool
}

// at returns the pool index operation i uses.
func (d deck) at(i int) int {
	round := uint64(i / len(d.slots))
	if d.fixed {
		round = 0
	}
	perm := rand.New(rand.NewPCG(d.seed, round)).Perm(len(d.slots))
	return d.slots[perm[i%len(d.slots)]]
}

// repeat builds deck slots holding pool index i counts[i] times.
func repeat(counts ...int) []int {
	var slots []int
	for i, n := range counts {
		for range n {
			slots = append(slots, i)
		}
	}
	return slots
}

// mcBase is the seed's offset for per-operation exploration budgets:
// operation i of a cold stream asks for mcBase(seed)+i configurations,
// always above every pool input's graph size (so the response bytes do not
// change) and never twice within a run (so the content address does).
func mcBase(seed uint64) int {
	return 1<<20 + int(rand.New(rand.NewPCG(seed, 0x6d63)).Uint64()%(1<<24))
}
