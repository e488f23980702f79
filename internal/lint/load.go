package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is a fully parsed and type-checked Go module.
type Module struct {
	Path string // module path from go.mod
	Dir  string // absolute module root
	Fset *token.FileSet
	Pkgs []*Package // every package with non-test files, by import path

	reach *reachSet // computed on the unreached analyzer's first use
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule discovers every package under dir (skipping testdata, hidden
// directories, and _test.go files), parses it, and type-checks it.
// Standard-library imports are resolved by go/importer's source importer —
// the module must be dependency-free, which go.mod's emptiness guarantees
// here — and intra-module imports are resolved by loading the imported
// directory recursively.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	m := moduleLineRE.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:       fset,
		modulePath: string(m[1]),
		moduleDir:  abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	mod := &Module{Path: l.modulePath, Dir: abs, Fset: fset}
	for _, d := range dirs {
		p, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			mod.Pkgs = append(mod.Pkgs, p)
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	for _, p := range mod.Pkgs {
		p.Module = mod
	}
	return mod, nil
}

type loader struct {
	fset       *token.FileSet
	modulePath string
	moduleDir  string
	std        types.Importer
	pkgs       map[string]*Package // by absolute dir
	loading    map[string]bool     // import-cycle guard, by absolute dir
}

// packageDirs walks the module for directories holding non-test .go
// files, in sorted order for deterministic loading and output.
func (l *loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if fs, err := sourceFiles(path); err == nil && len(fs) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// sourceFiles lists dir's non-test .go files in sorted order.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	return out, nil
}

// Import implements types.Importer: module-internal paths load from
// source, everything else is delegated to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		p, err := l.loadDir(filepath.Join(l.moduleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir (memoized). A dir
// with no non-test Go files yields (nil, nil).
func (l *loader) loadDir(dir string) (*Package, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	files, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		asts = append(asts, af)
	}
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil {
		return nil, err
	}
	importPath := l.modulePath
	if rel != "." {
		importPath += "/" + filepath.ToSlash(rel)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, asts, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[dir] = p
	return p, nil
}
