package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crncompose/internal/parse"
	"crncompose/internal/serve"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"min", "max", "fig7", "floor3x2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestSynthFloor3x2ParsesBack(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "floor3x2"}, &sb); err != nil {
		t.Fatal(err)
	}
	c, err := parse.Parse(sb.String())
	if err != nil {
		t.Fatalf("emitted CRN does not reparse: %v\n%s", err, sb.String())
	}
	if !c.IsOutputOblivious() {
		t.Error("synthesized CRN not output-oblivious")
	}
	if c.Leader == "" {
		t.Error("Theorem 3.1 CRN should have a leader")
	}
}

func TestSynthLeaderless(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "floor3x2", "-leaderless"}, &sb); err != nil {
		t.Fatal(err)
	}
	c, err := parse.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if c.Leader != "" {
		t.Error("leaderless synthesis produced a leader")
	}
}

func TestSynthLeaderlessRejectsNonSuperadditive(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "min1", "-leaderless"}, &sb); err == nil {
		t.Fatal("min(1,x) accepted by leaderless synthesis (Observation 9.1)")
	}
}

func TestSynthLeaderlessRejects2D(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "min", "-leaderless"}, &sb); err == nil {
		t.Fatal("2D function accepted by 1D-only leaderless path")
	}
}

func TestSynthStats2D(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "fig4a", "-bound", "8", "-n", "2", "-stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "oblivious=true") {
		t.Errorf("stats output wrong:\n%s", sb.String())
	}
}

func TestSynthMaxFailsWithWitness(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-f", "max"}, &sb)
	if err == nil {
		t.Fatal("max synthesized")
	}
	if !strings.Contains(err.Error(), "Lemma 4.1") {
		t.Errorf("error lacks the contradiction: %v", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "nonsense"}, &sb); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestSynthVerify(t *testing.T) {
	// Small grid so the general-construction state spaces stay tractable.
	var sb strings.Builder
	if err := run([]string{"-f", "min1", "-verify", "1", "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := parse.Parse(sb.String()); err != nil {
		t.Fatalf("verified CRN does not reparse: %v", err)
	}
}

// TestMatchesSynthesizeEndpoint: crnsynth and POST /v1/synthesize run the
// one synthesis pipeline (core.Synthesize), so the served crn field is the
// CLI's output byte for byte, and a function outside Theorem 9.2 is refused
// by both with the same message.
func TestMatchesSynthesizeEndpoint(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	synthesize := func(req serve.SynthesizeRequest) (int, []byte) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, tc := range []struct {
		args []string
		req  serve.SynthesizeRequest
	}{
		{[]string{"-f", "min"}, serve.SynthesizeRequest{Func: "min"}},
		{[]string{"-f", "fig7"}, serve.SynthesizeRequest{Func: "fig7"}},
		{[]string{"-f", "floor3x2", "-leaderless"}, serve.SynthesizeRequest{Func: "floor3x2", Leaderless: true}},
	} {
		var sb strings.Builder
		if err := run(tc.args, &sb); err != nil {
			t.Fatal(err)
		}
		status, body := synthesize(tc.req)
		var resp serve.SynthesizeResponse
		if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil {
			t.Fatalf("%v: %d %v %s", tc.args, status, err, body)
		}
		if resp.CRN != sb.String() {
			t.Errorf("%v: /v1/synthesize crn differs from crnsynth:\n%s\nwant:\n%s", tc.args, resp.CRN, sb.String())
		}
	}
	err := run([]string{"-f", "min1", "-leaderless"}, io.Discard)
	if err == nil {
		t.Fatal("crnsynth accepted leaderless min1")
	}
	status, body := synthesize(serve.SynthesizeRequest{Func: "min1", Leaderless: true})
	var e struct{ Error string }
	if jerr := json.Unmarshal(body, &e); status != http.StatusUnprocessableEntity || jerr != nil || e.Error != err.Error() {
		t.Fatalf("leaderless min1: served %d %s; crnsynth %q", status, body, err)
	}
}

// TestSynthLeaderlessVerify: -verify model-checks the leaderless CRN too.
func TestSynthLeaderlessVerify(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-f", "floor3x2", "-leaderless", "-verify", "6", "-workers", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
}
