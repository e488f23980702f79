package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFixtures runs the full suite over each testdata module and checks
// the findings against the fixtures' `// want "regexp"` comments: every
// finding must be expected by a want on its line, and every want must be
// matched by a finding.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			runFixture(t, filepath.Join("testdata", e.Name()))
		})
	}
}

func runFixture(t *testing.T, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(abs, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	wants := collectWants(t, abs)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want %q", key, w.re)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE matches `// want` comments; patterns follow as backquoted or
// double-quoted strings.
var (
	wantRE    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	patternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// collectWants scans every fixture .go file for want comments, keyed by
// file:line.
func collectWants(t *testing.T, root string) map[string][]*want {
	out := make(map[string][]*want)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, line)
			for _, q := range patternRE.FindAllString(m[1], -1) {
				var pat string
				if strings.HasPrefix(q, "`") {
					pat = strings.Trim(q, "`")
				} else {
					pat, err = strconv.Unquote(q)
					if err != nil {
						return fmt.Errorf("%s: bad want pattern %s: %w", key, q, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s: bad want regexp %q: %w", key, pat, err)
				}
				out[key] = append(out[key], &want{re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeModule materializes a throwaway module for directive and CLI
// tests.
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

const fixtureGoMod = "module example.com/tmp\n\ngo 1.24\n"

// TestMalformedDirectives checks that broken //crnlint:ignore comments
// are findings themselves and do not suppress anything.
func TestMalformedDirectives(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"internal/reach/r.go": `package reach

import "time"

func A() int64 {
	//crnlint:ignore determinism
	return time.Now().UnixNano()
}

func B() int64 {
	//crnlint:ignore typofail some reason
	return time.Now().UnixNano()
}

func C() int64 {
	//crnlint:ignore
	return time.Now().UnixNano()
}
`,
	})
	findings, err := Run(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ignoreFindings, determinismFindings int
	for _, f := range findings {
		switch f.Analyzer {
		case "ignore":
			ignoreFindings++
		case "determinism":
			determinismFindings++
		}
	}
	// Three malformed directives (missing reason, unknown analyzer,
	// missing everything), and none of them suppresses its time.Now.
	if ignoreFindings != 3 || determinismFindings != 3 {
		t.Errorf("got %d ignore + %d determinism findings, want 3 + 3:\n%v",
			ignoreFindings, determinismFindings, findings)
	}
}

// TestPatternSelection checks ./...-style package filtering.
func TestPatternSelection(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"internal/reach/r.go": `package reach

import "time"

func Clock() int64 { return time.Now().UnixNano() }
`,
		"internal/sim/s.go": "package sim\n",
		"cmd/use/main.go": `package main

import "example.com/tmp/internal/reach"

func main() { _ = reach.Clock }
`,
	})
	for _, tc := range []struct {
		patterns []string
		findings int
	}{
		{nil, 1},
		{[]string{"./..."}, 1},
		{[]string{"./internal/..."}, 1},
		{[]string{"./internal/reach"}, 1},
		{[]string{"./internal/reach/..."}, 1},
		{[]string{"./internal/sim/..."}, 0},
		{[]string{"./internal/sim", "./internal/reach"}, 1},
	} {
		findings, err := Run(dir, tc.patterns)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != tc.findings {
			t.Errorf("Run(%v): %d findings, want %d", tc.patterns, len(findings), tc.findings)
		}
	}
}

// TestRepoIsClean lints the real module: the tree must stay finding-free
// (the crnlint CI step enforces the same thing process-externally).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; run without -short")
	}
	t.Parallel()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo finding: %s", f)
	}
}
