package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crncompose/internal/lint"
)

// writeModule materializes a throwaway module to point crnlint at.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module example.com/tmp\n\ngo 1.24\n"

// TestSeededViolationsExitNonzero seeds one violation of each analyzer
// into a temp module and requires crnlint to exit 1, reporting each one —
// the self-test that the suite actually bites.
func TestSeededViolationsExitNonzero(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		analyzer string
		file     string
		src      string
	}{
		{"determinism", "internal/reach/r.go", `package reach

import "time"

func Clock() int64 { return time.Now().UnixNano() }
`},
		{"httpx", "web/web.go", `package web

import "net/http"

func Fetch(url string) (*http.Response, error) { return http.Get(url) }
`},
		{"mapiter", "internal/core/c.go", `package core

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`},
		{"errwrap", "internal/sim/s.go", `package sim

import "errors"

func Run() error { return errors.New("no prefix") }
`},
		{"unreached", "internal/vec/v.go", `package vec

func Unused() int { return 0 }
`},
	} {
		t.Run(tc.analyzer, func(t *testing.T) {
			t.Parallel()
			dir := writeModule(t, map[string]string{"go.mod": goMod, tc.file: tc.src})
			var out, errOut strings.Builder
			code := lint.Main([]string{"-C", dir, "./..."}, &out, &errOut)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stdout: %s stderr: %s)", code, out.String(), errOut.String())
			}
			if !strings.Contains(out.String(), "["+tc.analyzer+"]") {
				t.Errorf("stdout lacks a [%s] finding:\n%s", tc.analyzer, out.String())
			}
		})
	}
}

// TestCleanModuleExitsZero is the other half of the exit-code contract.
func TestCleanModuleExitsZero(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"internal/reach/r.go": `package reach

func Pure(x int) int { return x + 1 }
`,
		"cmd/use/main.go": `package main

import "example.com/tmp/internal/reach"

func main() { _ = reach.Pure(1) }
`,
	})
	var out, errOut strings.Builder
	if code := lint.Main([]string{"-C", dir, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, want 0 (stdout: %s stderr: %s)", code, out.String(), errOut.String())
	}
}

// TestLoadErrorExitsTwo distinguishes "findings" from "could not lint".
func TestLoadErrorExitsTwo(t *testing.T) {
	t.Parallel()
	dir := t.TempDir() // no go.mod anywhere under a temp root
	var out, errOut strings.Builder
	if code := lint.Main([]string{"-C", dir}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, errOut.String())
	}
	dir = writeModule(t, map[string]string{
		"go.mod":   goMod,
		"bad/b.go": "package bad\n\nfunc broken() { undefined() }\n",
	})
	out.Reset()
	errOut.Reset()
	if code := lint.Main([]string{"-C", dir, "./..."}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d on type error, want 2 (stderr: %s)", code, errOut.String())
	}
}
