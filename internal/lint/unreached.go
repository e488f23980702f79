package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// unreachedAnalyzer reports exported functions and methods of internal/
// packages that no non-test code in the module reaches. Such a function
// is either a leftover of an earlier design or a second implementation
// of a rule that already has one; either way it is code to maintain that
// nothing runs. A function that reproduces a named paper result stays
// when its doc comment says which, on a line of its own:
//
//	// Paper: Observation 2.4.
//
// A function counts as reached when any non-test file of the module
// references it outside its own declaration (so self-recursion does not
// count). A method also counts as reached when its name is a method of
// some interface type declared in the module or in a package it imports,
// transitively: calls through interface satisfaction (String, RoundTrip,
// Timeout) are invisible to the type checker's use map. Callers outside
// the module, such as the separate _perfbench module, are invisible too;
// those functions carry a //crnlint:ignore unreached directive naming
// the caller.
var unreachedAnalyzer = &Analyzer{
	Name:    "unreached",
	Doc:     "exported functions in internal/ need a non-test caller or a `// Paper: <result>.` tag",
	Applies: isInternalPath,
	Run:     runUnreached,
}

// isInternalPath reports whether path lies under an internal/ directory.
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// reachSet is the module-wide use data the unreached analyzer consults,
// computed once per module.
type reachSet struct {
	used         map[*types.Func]bool // referenced outside its own declaration
	ifaceMethods map[string]bool      // method names of every interface in view
}

// reached returns the module's reachSet, computing it on first use.
func (m *Module) reached() *reachSet {
	if m.reach != nil {
		return m.reach
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
	}
	rs := &reachSet{used: make(map[*types.Func]bool), ifaceMethods: make(map[string]bool)}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				rs.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range m.Pkgs {
		visit(p.Types)
		// Interface literals and function-local interface types.
		for expr, tv := range p.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue
			}
			rs.used[fn] = true
		}
	}
	m.reach = rs
	return rs
}

func runUnreached(p *Package) []Finding {
	if p.Types.Name() == "main" {
		return nil
	}
	rs := p.Module.reached()
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || paperTagged(fd.Doc) {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || rs.used[fn] || (fd.Recv != nil && rs.ifaceMethods[fn.Name()]) {
				continue
			}
			name := p.Types.Name() + "." + fn.Name()
			if fd.Recv != nil {
				if named := namedRecv(fn.Type().(*types.Signature).Recv().Type()); named != nil {
					name = p.Types.Name() + "." + named.Obj().Name() + "." + fn.Name()
				}
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(fd.Name.Pos()),
				Analyzer: "unreached",
				Message:  fmt.Sprintf("%s has no non-test caller: delete it, or tag its doc comment with `// Paper: <result>.` if it reproduces a paper result", name),
			})
		}
	}
	return out
}

// paperTagged reports whether doc has a line starting "Paper:".
func paperTagged(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Paper:") {
			return true
		}
	}
	return false
}
