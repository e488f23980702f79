package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"crncompose/internal/parse"
	"crncompose/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // samples 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond
		{21, 0.5, 11, true},  // the median of 21 has 10 beyond
		{20, 0.5, 10, true},  // nearest rank 10: 10 beyond
		{19, 0.5, 10, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(sorted(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// stream returns the first n request bodies workload w sends for seed.
func stream(t *testing.T, w string, seed uint64, n int) [][]byte {
	t.Helper()
	f, err := generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		e := f.pool[f.deck.at(i)]
		if out[i], err = e.request(e.budget(f.base, i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// address is a request's content address: what the server keys its cache
// and job table on, computed here from the canonical CRN text, function,
// grid and budget.
func address(t *testing.T, body []byte) [32]byte {
	t.Helper()
	var req serve.CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	c, err := parse.Parse(req.CRN)
	if err != nil {
		t.Fatal(err)
	}
	req.CRN = c.String()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestSameSeedGeneratesSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(t, w, 7, 200), stream(t, w, 7, 200)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", w, i)
			}
		}
	}
}

func TestSeedsGenerateDifferentAddresses(t *testing.T) {
	for _, w := range workloads {
		seen := map[[32]byte]bool{}
		for _, body := range stream(t, w, 1, 64) {
			seen[address(t, body)] = true
		}
		for i, body := range stream(t, w, 2, 64) {
			if seen[address(t, body)] {
				t.Errorf("%s: seed 2 request %d has a content address seed 1 also generates", w, i)
			}
		}
	}
}

func TestColdStreamsNeverRepeatAnAddress(t *testing.T) {
	for _, w := range []string{checkCold, jobsLocal, gridDist} {
		seen := map[[32]byte]bool{}
		for i, body := range stream(t, w, 3, 500) {
			a := address(t, body)
			if seen[a] {
				t.Fatalf("%s: request %d repeats an earlier content address", w, i)
			}
			seen[a] = true
		}
	}
}

func TestDeckRoundsHoldEverySlotOnce(t *testing.T) {
	d := deck{slots: repeat(3, 1, 2), seed: 5}
	for round := range 4 {
		count := map[int]int{}
		for i := range d.slots {
			count[d.at(round*len(d.slots)+i)]++
		}
		if count[0] != 3 || count[1] != 1 || count[2] != 2 {
			t.Errorf("round %d holds %v, want map[0:3 1:1 2:2]", round, count)
		}
	}
}
