// Package deadcode reports functions that no root of the program can
// reach through the whole-tree call graph (internal/analysis/callgraph).
//
// The roots are everything that can start running without a caller in
// the tree:
//
//   - main in every main package (cmd/*, examples/*);
//   - the exported functions and methods declared in the root package
//     sprite, the public API;
//   - init functions, and every function referenced from a package-level
//     var initializer (`Analyzer{Run: run}`);
//   - every Test, Benchmark, Example and Fuzz function in a _test.go file;
//   - every function of this module that a nested client module (a
//     directory below the root package with its own go.mod, such as
//     perfbench) calls or references, loaded from its own directory;
//   - every method that implements an interface method: a type's method
//     is live when the type or its pointer satisfies an interface that
//     has that method, declared in the tree or imported (flag.Value,
//     heap.Interface, fmt.Stringer, error). Dynamic dispatch is invisible
//     to the call graph, so satisfying an interface is taken as the call.
//
// From the roots every edge kind is followed: calls, function values
// (method values, functions passed as arguments), enclosed literals and
// spawned activities. A function no root reaches is dead code; because
// tests are roots, code only tests call stays live.
//
// The analyzer runs only on whole-tree runs: on a partial load every
// function whose callers were not loaded would look dead.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// Analyzer is the whole-tree reachability check.
var Analyzer = &dataflow.TreeAnalyzer{
	Name:      "deadcode",
	Doc:       "functions no main, test, init, var initializer, sprite API, client module or interface method reaches",
	WholeTree: true,
	Run:       run,
}

// rootPkg is the module's root package: its exported API is a root, and
// nested client modules are searched for below its directory.
const rootPkg = "sprite"

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	roots := programRoots(t.Pkgs)
	clients, err := clientRoots(t.Pkgs)
	if err != nil {
		return nil, err
	}
	roots = append(roots, clients...)
	roots = append(roots, interfaceRoots(t.Pkgs)...)

	live := reach(t.Graph, roots)
	var diags []lint.Diagnostic
	for id, n := range t.Graph.Nodes {
		if n.Decl == nil || live[id] {
			continue
		}
		diags = append(diags, lint.Diagnostic{
			Pos:      t.Graph.Fset.Position(n.Decl.Name.Pos()),
			Analyzer: "deadcode",
			Message:  fmt.Sprintf("%s is unreachable from every root (main, tests, init, var initializers, sprite API, client modules, interface methods); delete it", id),
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags, nil
}

// reach marks every node reachable from roots along any edge kind.
func reach(g *callgraph.Graph, roots []callgraph.FuncID) map[callgraph.FuncID]bool {
	live := make(map[callgraph.FuncID]bool)
	work := roots
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		n := g.Nodes[id]
		if n == nil || live[id] {
			continue
		}
		live[id] = true
		for _, e := range n.Out {
			work = append(work, e.Callee)
		}
	}
	return live
}

// programRoots collects the roots visible in the tree's own syntax:
// mains, the root package's exported API, init functions, var
// initializer references and test functions.
func programRoots(pkgs []*load.Package) []callgraph.FuncID {
	var roots []callgraph.FuncID
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			testFile := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn != nil && isRoot(pkg, fn, d, testFile) {
						roots = append(roots, callgraph.FuncIDOf(fn))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, referenced(pkg, d)...)
					}
				}
			}
		}
	}
	return roots
}

func isRoot(pkg *load.Package, fn *types.Func, d *ast.FuncDecl, testFile bool) bool {
	name := d.Name.Name
	switch {
	case d.Recv == nil && name == "init":
		return true
	case d.Recv == nil && name == "main":
		return pkg.Types.Name() == "main"
	case pkg.ImportPath == rootPkg:
		return fn.Exported()
	case testFile && d.Recv == nil:
		for _, prefix := range []string{"Test", "Benchmark", "Example", "Fuzz"} {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}

// referenced returns every function named anywhere in a package-level
// var declaration, including inside function literals there: the
// initializer runs before main, so whatever it calls or stores is live.
func referenced(pkg *load.Package, d *ast.GenDecl) []callgraph.FuncID {
	var out []callgraph.FuncID
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				out = append(out, callgraph.FuncIDOf(fn))
			}
		}
		return true
	})
	return out
}

// clientRoots loads every nested module below the root package's
// directory from its own directory and returns the functions of this
// module it uses. A fixture tree without the root package has none.
func clientRoots(pkgs []*load.Package) ([]callgraph.FuncID, error) {
	var dir string
	for _, pkg := range pkgs {
		if pkg.ImportPath == rootPkg {
			dir = pkg.Dir
		}
	}
	if dir == "" {
		return nil, nil
	}
	var modules []string
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() && path != dir && (de.Name() == "testdata" || strings.HasPrefix(de.Name(), ".")) {
			return filepath.SkipDir
		}
		if !de.IsDir() && de.Name() == "go.mod" && filepath.Dir(path) != dir {
			modules = append(modules, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var roots []callgraph.FuncID
	for _, m := range modules {
		client, err := load.Packages(m, "./...")
		if err != nil {
			return nil, fmt.Errorf("client module %s: %w", m, err)
		}
		for _, pkg := range client {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && inModule(fn.Pkg().Path()) {
						roots = append(roots, callgraph.FuncIDOf(fn))
					}
					return true
				})
			}
		}
	}
	return roots, nil
}

func inModule(path string) bool {
	return path == rootPkg || strings.HasPrefix(path, rootPkg+"/")
}

// interfaceRoots returns every method of a tree type that implements a
// method of an interface the type or its pointer satisfies.
func interfaceRoots(pkgs []*load.Package) []callgraph.FuncID {
	ifaces := interfaces(pkgs)
	var roots []callgraph.FuncID
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						roots = append(roots, callgraph.FuncIDOf(fn))
					}
				}
			}
		}
	}
	return roots
}

// interfaces gathers the non-empty method-set interfaces a tree value
// could be converted to: every named interface in the scope of a tree
// package or anything it imports, and every interface type the tree's
// code spells out (error, interface literals).
func interfaces(pkgs []*load.Package) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || iface.NumMethods() == 0 || !iface.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		out = append(out, iface)
	}
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}
