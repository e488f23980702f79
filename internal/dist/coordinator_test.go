package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/reach"
)

func newTestCoordinator(t *testing.T, clock *fakeClock, shards int, checkpoint string) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		CRN:        minCRN(),
		Func:       "min",
		Lo:         []int64{0, 0},
		Hi:         []int64{3, 3},
		Shards:     shards,
		LeaseTTL:   10 * time.Second,
		Checkpoint: checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock != nil {
		co.now = clock.now
	}
	return co
}

// TestLeaseExpiryReassignment drives the lease table directly under a
// jittered fake clock: a silent worker's rectangle must be reassigned after
// the TTL, renewals must keep a lease alive past the TTL, and a stale
// late result must be accepted idempotently without changing the outcome.
func TestLeaseExpiryReassignment(t *testing.T) {
	clock := newFakeClock(1)
	co := newTestCoordinator(t, clock, 3, "")
	if len(co.rects) != 3 {
		t.Fatalf("%d rects, want 3", len(co.rects))
	}

	// A and B take the first two rectangles.
	la := co.lease("A")
	lb := co.lease("B")
	if la.Rect == nil || lb.Rect == nil || la.Rect.ID != 0 || lb.Rect.ID != 1 {
		t.Fatalf("initial leases: %+v %+v", la, lb)
	}
	// B heartbeats across several sub-TTL advances; A stays silent.
	for i := 0; i < 4; i++ {
		clock.advance(4 * time.Second) // cumulative > TTL, but each gap < TTL
		if !co.renew("B", 1).OK {
			t.Fatalf("heartbeat %d lost B's live lease", i)
		}
	}
	// A's lease has now expired: the next hungry worker gets rect 0 back.
	lc := co.lease("C")
	if lc.Rect == nil || lc.Rect.ID != 0 {
		t.Fatalf("expired rect 0 not reassigned: %+v", lc)
	}
	if co.renew("A", 0).OK {
		t.Fatal("A still renews rect 0 after losing it")
	}
	if !co.renew("C", 0).OK {
		t.Fatal("C cannot renew its fresh lease")
	}
	// Only rect 2 remains pending.
	if ld := co.lease("D"); ld.Rect == nil || ld.Rect.ID != 2 {
		t.Fatalf("rect 2 not leased: %+v", ld)
	}
	if lw := co.lease("E"); !lw.Wait {
		t.Fatalf("everything leased, expected wait: %+v", lw)
	}

	// C reports rect 0; A's stale duplicate must be a no-op.
	r0 := localRectResult(t, minCRN(), minFunc, co.rects[0], "C")
	if resp, err := co.result(r0); err != nil || !resp.OK {
		t.Fatalf("C's result rejected: %+v %v", resp, err)
	}
	stale := localRectResult(t, minCRN(), minFunc, co.rects[0], "A")
	if resp, err := co.result(stale); err != nil || !resp.OK {
		t.Fatalf("stale duplicate rejected: %+v %v", resp, err)
	}

	for _, id := range []int{1, 2} {
		r := localRectResult(t, minCRN(), minFunc, co.rects[id], "B")
		if resp, err := co.result(r); err != nil || !resp.OK {
			t.Fatalf("rect %d result rejected: %+v %v", id, resp, err)
		}
	}
	if lz := co.lease("Z"); !lz.Done {
		t.Fatalf("job not done after all rects: %+v", lz)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	merged, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAsLocal(t, merged, nil, minCRN(), minFunc, []int64{0, 0}, []int64{3, 3})
}

// TestLeaseLongPoll: a parked /lease request must be answered early — when
// an outstanding lease expires (the only event returning a rectangle to the
// pending set) and when the job finishes — instead of the worker polling
// every 50ms or the request hanging for the full window. Real clock: the
// park's wakeup timers are wall-time driven.
func TestLeaseLongPoll(t *testing.T) {
	ttl := 300 * time.Millisecond
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{3, 3},
		Shards: 1, LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A takes the only rectangle and goes silent.
	if la := co.lease("A"); la.Rect == nil || la.Rect.ID != 0 {
		t.Fatalf("initial lease: %+v", la)
	}
	// B long-polls with a window far beyond the TTL (the coordinator clamps
	// it): it must be handed A's expired rectangle from inside the park, not
	// told to go away and poll.
	start := time.Now()
	lb := co.leaseWait(context.Background(), "B", time.Hour)
	if lb.Rect == nil || lb.Rect.ID != 0 {
		t.Fatalf("parked request not granted the expired rectangle: %+v", lb)
	}
	if elapsed := time.Since(start); elapsed > 10*ttl {
		t.Fatalf("reassignment took %v, expected ~TTL (%v)", elapsed, ttl)
	}
	// C parks while B computes; B's result finishes the job, which must wake
	// C with Done well before C's window closes.
	woken := make(chan LeaseResponse, 1)
	go func() { woken <- co.leaseWait(context.Background(), "C", time.Hour) }()
	time.Sleep(20 * time.Millisecond) // let C park (racing is still correct, just weaker)
	r := localRectResult(t, minCRN(), minFunc, co.rects[0], "B")
	if resp, err := co.result(r); err != nil || !resp.OK {
		t.Fatalf("result rejected: %+v %v", resp, err)
	}
	select {
	case lc := <-woken:
		if !lc.Done {
			t.Fatalf("parked request answered %+v, want Done", lc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job completion did not wake the parked lease request")
	}
	// A closed coordinator answers parked requests instead of holding them.
	if err := co.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lz := co.leaseWait(context.Background(), "Z", time.Hour); !lz.Done {
		t.Fatalf("post-shutdown long-poll: %+v, want Done", lz)
	}
}

// TestMergeStopsAtFirstFailingRect: a failure in an early rectangle must
// produce the single-process result even when later rectangles completed
// with their own (discarded) counts, and must not require rects past the
// failing one.
func TestMergeStopsAtFirstFailingRect(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{3, 3},
		Shards: 4, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A spec that diverges from min only on the x1 ≥ 2 slabs: rects 0 and 1
	// verify (their counts must all be in the merge), the grid's first
	// failure is (2,0) in rect 2, and rect 3 holds a later failure that the
	// merge must discard along with rect 3's counts.
	badHigh := func(x []int64) int64 {
		if x[0] >= 2 {
			return min(x[0], x[1]) + 1
		}
		return min(x[0], x[1])
	}
	rects := co.rects
	// Report out of order, later rects first.
	for _, id := range []int{3, 0, 1} {
		r := localRectResult(t, minCRN(), badHigh, rects[id], "w")
		if resp, err := co.result(r); err != nil || !resp.OK {
			t.Fatalf("rect %d: %+v %v", id, resp, err)
		}
	}
	// Rect 3 is decided but rect 2 is still missing, so the run must not be
	// finished yet: the true first failure could be (and is) in rect 2.
	if st := co.status(); st["finished"] != false {
		t.Fatalf("finished early: %v", st)
	}
	r := localRectResult(t, minCRN(), badHigh, rects[2], "w")
	if resp, err := co.result(r); err != nil || !resp.OK {
		t.Fatalf("rect 2: %+v %v", resp, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	merged, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAsLocal(t, merged, nil, minCRN(), badHigh, []int64{0, 0}, []int64{3, 3})
	if merged.OK() || !slices.Equal(merged.Failure.Input, []int64{2, 0}) {
		t.Fatalf("merged failure at %v, want [2 0]", merged.Failure)
	}
}

// TestCheckpointResume: a fresh coordinator with the same job and checkpoint
// file must resume from the completed rectangles, and a coordinator with a
// different job must ignore the file.
func TestCheckpointResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "ckpt.json")
	co1 := newTestCoordinator(t, nil, 4, cp)
	rects := co1.rects
	for _, id := range []int{0, 2} {
		r := localRectResult(t, minCRN(), minFunc, rects[id], "w")
		if resp, err := co1.result(r); err != nil || !resp.OK {
			t.Fatalf("rect %d: %+v %v", id, resp, err)
		}
	}

	// Same job: rects 0 and 2 restored, first lease hands out rect 1.
	co2 := newTestCoordinator(t, nil, 4, cp)
	if st := co2.status(); st["done"] != 2 {
		t.Fatalf("resumed status %v, want done=2", st)
	}
	if l := co2.lease("w"); l.Rect == nil || l.Rect.ID != 1 {
		t.Fatalf("first lease after resume: %+v", l)
	}
	for _, id := range []int{1, 3} {
		r := localRectResult(t, minCRN(), minFunc, rects[id], "w")
		if resp, err := co2.result(r); err != nil || !resp.OK {
			t.Fatalf("rect %d: %+v %v", id, resp, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	merged, err := co2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAsLocal(t, merged, nil, minCRN(), minFunc, []int64{0, 0}, []int64{3, 3})

	// Different job (different grid): checkpoint ignored, nothing done.
	co3, err := NewCoordinator(CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{2, 2},
		Shards: 4, Checkpoint: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := co3.status(); st["done"] != 0 {
		t.Fatalf("mismatched checkpoint not ignored: %v", st)
	}
}

// TestRunLocalKeepsCompletedRects: RunLocal on a coordinator that never
// listens checks only what is left — a worker's completed rectangle is
// kept, a lease whose holder can no longer report is taken back last — and
// the merge is byte-identical to one CheckGrid, verified or refuted. The
// refuted grid fails first in rectangle 2, so rectangle 3 is never checked.
func TestRunLocalKeepsCompletedRects(t *testing.T) {
	lo, hi := []int64{0, 0}, []int64{3, 3}
	wrongFrom2 := func(x []int64) int64 { // min, off by one once x1 >= 2
		if x[0] >= 2 {
			return min(x[0], x[1]) + 1
		}
		return min(x[0], x[1])
	}
	for name, tc := range map[string]struct {
		f           reach.Func
		wantChecked []int
	}{
		"verified": {minFunc, []int{2, 3, 1}},
		"refuted":  {wrongFrom2, []int{2, 1}},
	} {
		t.Run(name, func(t *testing.T) {
			co, err := NewCoordinator(CoordinatorConfig{CRN: minCRN(), Func: "min", Lo: lo, Hi: hi, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Worker A completes rect 0; worker B leases rect 1 and vanishes.
			if l := co.lease("A"); l.Rect == nil || l.Rect.ID != 0 {
				t.Fatalf("A's lease: %+v", l)
			}
			if _, err := co.result(localRectResult(t, minCRN(), tc.f, co.rects[0], "A")); err != nil {
				t.Fatal(err)
			}
			if l := co.lease("B"); l.Rect == nil || l.Rect.ID != 1 {
				t.Fatalf("B's lease: %+v", l)
			}
			var checked []int
			merged, err := co.RunLocal(context.Background(), func(ctx context.Context, r Rect) (reach.GridResult, error) {
				checked = append(checked, r.ID)
				return reach.CheckGridCtx(ctx, minCRN(), tc.f, r.Lo, r.Hi)
			})
			assertSameAsLocal(t, merged, err, minCRN(), tc.f, lo, hi)
			if !slices.Equal(checked, tc.wantChecked) {
				t.Fatalf("RunLocal checked rects %v, want %v", checked, tc.wantChecked)
			}
		})
	}
}

// TestRunLocalCanceled: a canceled context stops RunLocal with check's
// error and no partial result.
func TestRunLocalCanceled(t *testing.T) {
	co := newTestCoordinator(t, nil, 4, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := co.RunLocal(ctx, func(ctx context.Context, r Rect) (reach.GridResult, error) {
		return reach.CheckGridCtx(ctx, minCRN(), minFunc, r.Lo, r.Hi)
	})
	if !errors.Is(err, context.Canceled) || res != (reach.GridResult{}) {
		t.Fatalf("canceled RunLocal = %+v, %v", res, err)
	}
	if done, total := co.Progress(); done != 0 || total != 4 {
		t.Fatalf("progress after cancel: %d/%d", done, total)
	}
}

// TestResultValidation: malformed reports are protocol errors, unknown rect
// ids are rejected, and empty reports are rejected.
func TestResultValidation(t *testing.T) {
	co := newTestCoordinator(t, nil, 2, "")
	if _, err := co.result(ResultRequest{Worker: "w", RectID: 99, Result: json.RawMessage(`{}`)}); err == nil {
		t.Fatal("unknown rect accepted")
	}
	if _, err := co.result(ResultRequest{Worker: "w", RectID: 0}); err == nil {
		t.Fatal("empty report accepted")
	}
	if _, err := co.result(ResultRequest{Worker: "w", RectID: 0, Result: json.RawMessage(`{"failure":{"verdict":{"witness":{"start":[1]}}}}`)}); err == nil {
		t.Fatal("undecodable result accepted")
	}
}

// TestResultRawOnlyWithCheckpoint: a POST /result keeps the rectangle's
// wire JSON only when a checkpoint file will be written from it.
func TestResultRawOnlyWithCheckpoint(t *testing.T) {
	for _, cp := range []string{"", filepath.Join(t.TempDir(), "ckpt.json")} {
		co := newTestCoordinator(t, nil, 2, cp)
		body, err := json.Marshal(localRectResult(t, minCRN(), minFunc, co.rects[0], "w"))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/result", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("checkpoint %q: /result answered %d: %s", cp, rec.Code, rec.Body)
		}
		st := &co.states[0]
		if st.status != rectDone {
			t.Fatalf("checkpoint %q: rect 0 not recorded", cp)
		}
		if kept := st.raw != nil; kept != (cp != "") {
			t.Fatalf("checkpoint %q: raw kept = %v", cp, kept)
		}
	}
}

// assertSameAsLocal marshals merged and the local single-process CheckGrid
// result and requires byte identity (and identical String renderings).
func assertSameAsLocal(t *testing.T, merged reach.GridResult, mergedErr error, c *crn.CRN, f reach.Func, lo, hi []int64) {
	t.Helper()
	local, localErr := reach.CheckGrid(c, f, lo, hi)
	if (mergedErr == nil) != (localErr == nil) {
		t.Fatalf("error mismatch: merged %v, local %v", mergedErr, localErr)
	}
	if mergedErr != nil && mergedErr.Error() != localErr.Error() {
		t.Fatalf("error mismatch: merged %q, local %q", mergedErr, localErr)
	}
	mb, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, lb) {
		t.Fatalf("merged result differs from local:\nmerged: %s\nlocal:  %s", mb, lb)
	}
	if merged.String() != local.String() {
		t.Fatalf("String differs: %q vs %q", merged, local)
	}
}

// TestControlBodiesCapped: a /lease or /renew body past maxControlBytes is
// answered 400 without being read to its end, and the coordinator then
// still grants leases.
func TestControlBodiesCapped(t *testing.T) {
	co := newTestCoordinator(t, nil, 1, "")
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	huge := []byte(`{"worker":"` + strings.Repeat("w", 2*maxControlBytes) + `"}`)
	for _, path := range []string{"/lease", "/renew"} {
		if resp := post(path, huge); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized %s answered %d, want 400", path, resp.StatusCode)
		}
	}
	resp := post("/lease", []byte(`{"worker":"A"}`))
	var la LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&la); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || la.Rect == nil {
		t.Fatalf("lease after oversized bodies: %d %+v", resp.StatusCode, la)
	}
}
