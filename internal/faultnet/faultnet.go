// Package faultnet is deterministic, seeded network fault injection for the
// chaos test suites: an http.RoundTripper wrapper that makes a client's
// requests fail on a reproducible schedule.
//
// # Determinism
//
// A Schedule is a pure function of (Seed, request index): request i gets
// fault At(i), always. Under concurrency the assignment of indices to
// requests can race, but the multiset of injected faults along any run is
// fixed by the seed, so a failing chaos seed replays the same fault mix —
// and the suites' assertion (the final merged result is byte-identical to
// the fault-free run) is schedule-independent by the dist subsystem's own
// determinism contract.
//
// # Fault model
//
//   - FaultRefuse: the connection is refused; the request never reaches
//     the server (a down or restarting peer).
//   - FaultTimeout: the request "hangs" and times out client-side without
//     reaching the server (a black-holed packet, a dead NAT entry).
//   - FaultServerError: an injected 502 without reaching the server (a
//     failing proxy or load balancer in front of a healthy peer).
//   - FaultSlow: the request succeeds but the response is delayed by
//     Latency (a congested or GC-pausing peer).
//   - FaultDrop: the request reaches the server and fully executes —
//     the server COMMITS — but the response is lost on the way back.
//     This is the nasty case: the client must retry an operation the
//     server already performed, so every mutating endpoint it exercises
//     is forced to prove its idempotence (the dist coordinator's
//     stale-duplicate result handling, lease renews).
//
// MaxFaults caps the total number of injected faults, after which the
// schedule passes everything through — the hard progress guarantee that
// lets chaos tests run bounded-probability schedules without any chance of
// starving a retry budget forever.
package faultnet

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault is one injected failure mode.
type Fault uint8

const (
	FaultNone Fault = iota
	FaultRefuse
	FaultTimeout
	FaultServerError
	FaultSlow
	FaultDrop

	numFaults
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultRefuse:
		return "refuse"
	case FaultTimeout:
		return "timeout"
	case FaultServerError:
		return "server-error"
	case FaultSlow:
		return "slow"
	case FaultDrop:
		return "drop-after-commit"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Schedule is a seeded fault plan: per-fault probabilities (the remainder
// is FaultNone), the latency used by slow/timeout faults, and an optional
// cap on total injected faults. The zero value injects nothing.
type Schedule struct {
	Seed uint64
	// Probabilities in [0,1]; their sum should be ≤ 1 (the remainder is the
	// pass-through probability).
	PRefuse, PTimeout, PServerError, PSlow, PDrop float64
	// Latency is the FaultSlow response delay and the FaultTimeout stall
	// before the client-side timeout error (default 20ms).
	Latency time.Duration
	// MaxFaults, when positive, caps the number of injected faults; past it
	// every request passes through — the progress guarantee bounded retry
	// budgets rely on. Zero means unlimited.
	MaxFaults int64
}

func (s Schedule) latency() time.Duration {
	if s.Latency <= 0 {
		return 20 * time.Millisecond
	}
	return s.Latency
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix, so
// consecutive indices under one seed decorrelate completely.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// At returns the fault for the i-th request: a pure function of (Seed, i).
func (s Schedule) At(i int64) Fault {
	u := float64(splitmix64(s.Seed^uint64(i)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	for _, c := range []struct {
		p float64
		f Fault
	}{
		{s.PRefuse, FaultRefuse},
		{s.PTimeout, FaultTimeout},
		{s.PServerError, FaultServerError},
		{s.PSlow, FaultSlow},
		{s.PDrop, FaultDrop},
	} {
		if u < c.p {
			return c.f
		}
		u -= c.p
	}
	return FaultNone
}

// timeoutError is the client-side error a FaultTimeout surfaces; it
// satisfies net.Error with Timeout() == true, like a real deadline miss.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: injected request timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrDropped is the error a FaultDrop surfaces after the server committed.
var ErrDropped = fmt.Errorf("faultnet: response dropped after server commit")

// Transport injects faults into a client's requests on the schedule. It is
// safe for concurrent use.
type Transport struct {
	inner http.RoundTripper
	sched Schedule
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)

	next      atomic.Int64 // request index
	scheduled atomic.Int64 // faults the schedule asked for (cap accounting)
	injected  atomic.Int64 // faults actually injected
}

// NewTransport wraps inner (nil = http.DefaultTransport) with the schedule.
//
//crnlint:ignore unreached chaos-suite harness: only the dist chaos tests build faulty transports
func NewTransport(inner http.RoundTripper, s Schedule) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, sched: s}
}

// Injected returns how many requests were actually faulted, for the chaos
// suite's logs.
//
//crnlint:ignore unreached chaos-suite harness: the dist chaos tests log it
func (t *Transport) Injected() int64 { return t.injected.Load() }

// decide picks the fault for the next request, honoring MaxFaults.
func (t *Transport) decide() Fault {
	f := t.sched.At(t.next.Add(1) - 1)
	if f == FaultNone {
		return f
	}
	if t.sched.MaxFaults > 0 && t.scheduled.Add(1) > t.sched.MaxFaults {
		return FaultNone
	}
	t.injected.Add(1)
	return f
}

// RoundTrip implements http.RoundTripper under the fault schedule.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.decide()
	if f != FaultNone && t.Logf != nil {
		t.Logf("faultnet: %s %s %s", f, req.Method, req.URL.Path)
	}
	switch f {
	case FaultRefuse:
		closeBody(req)
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: nil, Err: syscall.ECONNREFUSED}
	case FaultTimeout:
		closeBody(req)
		// Stall like a real timeout would, bounded by the request context.
		select {
		case <-req.Context().Done():
		case <-time.After(t.sched.latency()):
		}
		return nil, timeoutError{}
	case FaultServerError:
		closeBody(req)
		return &http.Response{
			Status:        "502 Bad Gateway",
			StatusCode:    http.StatusBadGateway,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader("faultnet: injected server error\n")),
			ContentLength: -1,
			Request:       req,
		}, nil
	case FaultSlow:
		resp, err := t.inner.RoundTrip(req)
		select {
		case <-req.Context().Done():
			// The client gave up during the delay; surface that as the
			// timeout it is, releasing the response.
			if resp != nil {
				resp.Body.Close()
			}
			return nil, timeoutError{}
		case <-time.After(t.sched.latency()):
		}
		return resp, err
	case FaultDrop:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err // the real network failed first
		}
		// Fully execute the exchange so the server commits, then lose the
		// response.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, ErrDropped
	}
	return t.inner.RoundTrip(req)
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
