package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// mainArg as a child's first argument makes TestMain run main itself, so
// the tests below observe bench's real exit status.
const mainArg = "bench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"bench"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs bench with args in a child process and returns its exit
// status, its standard error and the files it left in a fresh -outdir.
func runBench(t *testing.T, args ...string) (int, string, []os.DirEntry) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], append([]string{mainArg, "-outdir", dir}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return code, stderr.String(), files
}

// TestUnknownSuiteExitsTwo pins that a -suite bench does not run is a
// usage error that names the valid suites, not a silent no-op.
func TestUnknownSuiteExitsTwo(t *testing.T) {
	for _, suite := range []string{"typo", "serve", "dist"} {
		code, stderr, files := runBench(t, "-quick", "-suite", suite)
		if code != 2 {
			t.Errorf("-suite %s: exit %d, want 2", suite, code)
		}
		if !strings.Contains(stderr, "reach, sim, all") {
			t.Errorf("-suite %s: stderr does not list the suites: %q", suite, stderr)
		}
		if len(files) != 0 {
			t.Errorf("-suite %s wrote %d files", suite, len(files))
		}
	}
}

// TestMeasureRecordsMedianAndSpread pins how a row summarizes its samples:
// ns_per_op and the extra metrics come from the median sample, and
// ns_per_op_min and ns_per_op_max from the fastest and slowest.
func TestMeasureRecordsMedianAndSpread(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)
	sleeps := []time.Duration{9 * time.Millisecond, time.Millisecond, 5 * time.Millisecond}
	sample := 0
	rec := measure("sleep", len(sleeps), func(b *testing.B) {
		d := sleeps[sample]
		sample++
		for i := 0; i < b.N; i++ {
			time.Sleep(d)
		}
		b.ReportMetric(float64(d.Milliseconds()), "ms")
	})
	if rec.Samples != 3 || rec.Extra["ms"] != 5 {
		t.Fatalf("samples %d, median sample's metric %v; want 3 and 5", rec.Samples, rec.Extra["ms"])
	}
	if !(rec.NsPerOpMin < rec.NsPerOp && rec.NsPerOp < rec.NsPerOpMax) ||
		rec.NsPerOpMin < float64(time.Millisecond) || rec.NsPerOpMax < float64(9*time.Millisecond) {
		t.Fatalf("ns/op min %g, median %g, max %g", rec.NsPerOpMin, rec.NsPerOp, rec.NsPerOpMax)
	}
}
