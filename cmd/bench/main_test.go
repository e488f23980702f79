package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
