// Package lint implements crnlint, the repository's own static-analysis
// suite. Every guarantee this reproduction makes — byte-identical
// GridResults at any worker count, crash schedule, or cache state — rests
// on invariants that no general-purpose linter knows about: engine code
// must not read wall clocks or unseeded randomness, map-iteration order
// must not leak into output, and every cross-process HTTP call must go
// through internal/httpx. crnlint machine-checks those invariants so
// aggressive refactors cannot silently break determinism. It also keeps
// the tree small: an exported internal/ function that nothing calls is a
// finding unless it reproduces a named paper result.
//
// The suite is stdlib-only (go/parser + go/types, with go/importer's
// source importer for standard-library dependencies); go.mod stays
// dependency-free. Each analyzer reports findings as
//
//	file:line: [analyzer] message
//
// and crnlint exits non-zero on any finding. A finding is suppressible
// only by a
//
//	//crnlint:ignore <analyzer> <reason>
//
// comment on the offending line (or the line directly above it); the
// reason is mandatory, and malformed or unknown directives are themselves
// findings that cannot be suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one type-checked package handed to analyzers.
type Package struct {
	Path  string // import path within the module (label for package main)
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, in lexical filename order
	Types *types.Package
	Info  *types.Info
	// Module is the module the package was loaded with, for analyzers
	// that need module-wide facts.
	Module *Module
}

// Analyzer is one pass of the suite.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by import path; nil means every package.
	Applies func(pkgPath string) bool
	Run     func(p *Package) []Finding
}

// Analyzers is the full suite, in the order findings are attributed.
var Analyzers = []*Analyzer{
	determinismAnalyzer,
	httpxAnalyzer,
	mapiterAnalyzer,
	errwrapAnalyzer,
	unreachedAnalyzer,
}

// enginePackages are the deterministic compute packages: every verdict
// they produce must be a pure function of their inputs. The determinism
// and errwrap analyzers apply to exactly this set; mapiter additionally
// covers internal/dist, whose merged results carry the same byte-identity
// promise. internal/trace is in the set even though it is not an engine:
// its whole API takes caller-owned instants (Seam.Start(now) and
// Event.End(now)), and
// keeping it here guarantees the package itself never grows a clock read —
// so an engine can never launder time.Now through a span.
var enginePackages = []string{
	"reach", "sim", "classify", "synth", "core", "crn",
	"vec", "compose", "semilinear", "parse", "randfunc", "trace",
}

// hasInternalSuffix reports whether path ends in "internal/<name>", the
// module-relative shape shared by the real tree and test fixtures.
func hasInternalSuffix(path, name string) bool {
	suffix := "internal/" + name
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isEnginePackage reports whether path is one of the deterministic engine
// packages.
func isEnginePackage(path string) bool {
	for _, name := range enginePackages {
		if hasInternalSuffix(path, name) {
			return true
		}
	}
	return false
}

// ignoreDirective is one parsed //crnlint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	bad      string // non-empty when the directive is malformed
}

var ignoreRE = regexp.MustCompile(`^//crnlint:ignore(.*)$`)

// directives extracts every //crnlint:ignore comment in the package,
// keyed by filename then line.
func directives(p *Package) map[string]map[int][]ignoreDirective {
	out := make(map[string]map[int][]ignoreDirective)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := ignoreDirective{pos: pos}
				fields := strings.Fields(m[1])
				switch {
				case len(fields) == 0:
					d.bad = "missing analyzer and reason"
				case len(fields) == 1:
					d.analyzer = fields[0]
					d.bad = "missing reason"
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				if d.bad == "" && !knownAnalyzer(d.analyzer) {
					d.bad = fmt.Sprintf("unknown analyzer %q", d.analyzer)
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]ignoreDirective)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
	return out
}

func knownAnalyzer(name string) bool {
	for _, a := range Analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// suppressed reports whether a directive on the finding's line (or the
// line directly above, for findings whose lines are too long to carry a
// trailing comment) names the finding's analyzer.
func suppressed(dirs map[string]map[int][]ignoreDirective, f Finding) bool {
	byLine := dirs[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.bad == "" && d.analyzer == f.Analyzer {
				return true
			}
		}
	}
	return false
}

// directiveFindings reports malformed directives. These are never
// suppressible: a broken suppression must not silently suppress.
func directiveFindings(dirs map[string]map[int][]ignoreDirective) []Finding {
	var out []Finding
	for _, byLine := range dirs {
		for _, ds := range byLine {
			for _, d := range ds {
				if d.bad != "" {
					out = append(out, Finding{
						Pos:      d.pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf("malformed //crnlint:ignore directive: %s (want //crnlint:ignore <analyzer> <reason>)", d.bad),
					})
				}
			}
		}
	}
	return out
}

// Run loads the module rooted at moduleDir, runs the full suite over the
// packages selected by patterns (empty or "./..." selects everything),
// and returns the surviving findings sorted by position.
func Run(moduleDir string, patterns []string) ([]Finding, error) {
	mod, err := LoadModule(moduleDir)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range mod.Pkgs {
		if !selectPackage(mod, p, patterns) {
			continue
		}
		dirs := directives(p)
		findings = append(findings, directiveFindings(dirs)...)
		for _, a := range Analyzers {
			if a.Applies != nil && !a.Applies(p.Path) {
				continue
			}
			for _, f := range a.Run(p) {
				if !suppressed(dirs, f) {
					findings = append(findings, f)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// selectPackage implements "./..."-style pattern filtering relative to
// the module root. No patterns (or any "./..." among them) selects every
// package; "./internal/reach" selects that one package; a trailing
// "/..." selects the subtree.
func selectPackage(mod *Module, p *Package, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(p.Dir, mod.Dir), "/")
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat {
			return true
		}
	}
	return false
}

// --- shared type-level helpers used by the analyzers ---

// pkgFunc resolves id to a package-level function (no receiver) and
// returns it, or nil.
func pkgFunc(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// calleeIdent returns the rightmost identifier of a call's callee
// (handles f(...) and pkg.f(...)).
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// isStdFunc reports whether call invokes the package-level function
// pkgPath.name.
func isStdFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	id := calleeIdent(call)
	if id == nil {
		return false
	}
	fn := pkgFunc(info, id)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// rootIdent digs through selectors, indexes, and parens to the leftmost
// identifier of an expression (x in x.a[i].b), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// lit returns the unquoted value of a string literal expression, and
// whether e is one.
func lit(e ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
