package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func writeTempCRN(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.crn")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckMinOK(t *testing.T) {
	path := writeTempCRN(t, "#input X1 X2\n#output Y\nX1 + X2 -> Y\n")
	var sb strings.Builder
	if err := run([]string{"-crn", path, "-f", "min", "-hi", "4"}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "output-oblivious=true") || !strings.Contains(out, "ok:") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestCheckWrongCRNRefuted(t *testing.T) {
	// A sum CRN claimed to compute min.
	path := writeTempCRN(t, "#input X1 X2\n#output Y\nX1 -> Y\nX2 -> Y\n")
	var sb strings.Builder
	err := run([]string{"-crn", path, "-f", "min", "-hi", "2"}, &sb)
	if err == nil {
		t.Fatalf("wrong CRN verified:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Errorf("no failure report:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "witness schedule") {
		t.Errorf("no witness schedule printed:\n%s", sb.String())
	}
}

func TestCheckArityMismatch(t *testing.T) {
	path := writeTempCRN(t, "#input X\n#output Y\nX -> Y\n")
	var sb strings.Builder
	if err := run([]string{"-crn", path, "-f", "min"}, &sb); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestCheckMissingFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("missing flags accepted")
	}
}

func TestCheckUnknownFunction(t *testing.T) {
	path := writeTempCRN(t, "#input X\n#output Y\nX -> Y\n")
	var sb strings.Builder
	if err := run([]string{"-crn", path, "-f", "bogus"}, &sb); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestCheckJSONOutput(t *testing.T) {
	path := writeTempCRN(t, "#input X1 X2\n#output Y\nX1 + X2 -> Y\n")
	var sb strings.Builder
	if err := run([]string{"-crn", path, "-f", "min", "-hi", "2", "-json"}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	var res struct {
		Checked      int `json:"checked"`
		Inconclusive int `json:"inconclusive"`
		Explored     int `json:"explored"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &res); err != nil {
		t.Fatalf("output is not the GridResult encoding: %v\n%s", err, sb.String())
	}
	if res.Checked != 9 {
		t.Fatalf("checked = %d, want 9", res.Checked)
	}
	if strings.Contains(sb.String(), "structure:") {
		t.Fatalf("-json output mixes in human lines:\n%s", sb.String())
	}
}

// freePort reserves a localhost port for the coordinator.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestCheckDistributedModes runs the real CLI wiring end to end: a
// coordinator via run(..., -coordinator) and two workers via
// run(..., -join), all in-process, and requires the coordinator's -json
// output to be byte-identical to the local mode's.
func TestCheckDistributedModes(t *testing.T) {
	crnText := "#input X1 X2\n#output Y\nX1 + X2 -> Y\n"
	path := writeTempCRN(t, crnText)

	var local strings.Builder
	if err := run([]string{"-crn", path, "-f", "min", "-hi", "3", "-json"}, &local); err != nil {
		t.Fatalf("local: %v", err)
	}

	addr := freePort(t)
	var coord strings.Builder
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- run([]string{"-crn", path, "-f", "min", "-hi", "3", "-json",
			"-coordinator", addr, "-shards", "5"}, &coord)
	}()
	var workerWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			if err := run([]string{"-join", addr}, new(strings.Builder)); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coord.String())
	}
	workerWG.Wait()
	if coord.String() != local.String() {
		t.Fatalf("distributed output differs from local:\n%s\nvs\n%s", coord.String(), local.String())
	}
}

func TestCheckCoordinatorRefutedExitsNonzero(t *testing.T) {
	// A sum CRN claimed to compute min, checked distributed: the coordinator
	// must report the failure (witness schedule included) and return an
	// error, exactly like local mode.
	path := writeTempCRN(t, "#input X1 X2\n#output Y\nX1 -> Y\nX2 -> Y\n")
	addr := freePort(t)
	var coord strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-crn", path, "-f", "min", "-hi", "2", "-coordinator", addr, "-shards", "3"}, &coord)
	}()
	go func() {
		_ = run([]string{"-join", addr}, new(strings.Builder))
	}()
	err := <-done
	if err == nil {
		t.Fatalf("refuted grid verified:\n%s", coord.String())
	}
	if !strings.Contains(coord.String(), "FAIL") || !strings.Contains(coord.String(), "witness schedule") {
		t.Fatalf("missing failure report:\n%s", coord.String())
	}

	// Both modes print the structure line, the FAIL line, and the witness
	// schedule — and they must agree byte for byte.
	var localOut strings.Builder
	if lerr := run([]string{"-crn", path, "-f", "min", "-hi", "2"}, &localOut); lerr == nil {
		t.Fatal("local mode verified the refuted grid")
	}
	if coord.String() != localOut.String() {
		t.Fatalf("distributed failure report differs from local:\n%q\nvs\n%q", coord.String(), localOut.String())
	}
}

// TestCheckEmptyGridFails: -lo above -hi is an empty grid. Local and
// coordinator mode both refuse it with the same error and check nothing —
// in particular not the input (lo, lo), which lies outside the grid.
func TestCheckEmptyGridFails(t *testing.T) {
	path := writeTempCRN(t, "#input X1 X2\n#output Y\nX1 + X2 -> Y\n")
	args := []string{"-crn", path, "-f", "min", "-lo", "5", "-hi", "3"}
	var errs []string
	for _, mode := range [][]string{nil, {"-coordinator", freePort(t)}} {
		var sb strings.Builder
		err := run(append(append([]string(nil), args...), mode...), &sb)
		if err == nil || !strings.Contains(err.Error(), "empty grid axis") {
			t.Fatalf("%v: err = %v, want an empty-axis error\n%s", mode, err, sb.String())
		}
		if strings.Contains(sb.String(), "checked") {
			t.Fatalf("%v: empty grid reported a result:\n%s", mode, sb.String())
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("local and coordinator errors differ: %q vs %q", errs[0], errs[1])
	}
}
