// Package callgraph builds a whole-tree static call graph over the offline
// loader's packages (internal/analysis/load), the substrate for the
// interprocedural analyzers (DESIGN.md §14). The per-package analyzers see
// one function at a time; the contract they enforce — determinism of
// everything feeding traces and digests — is a property of call *chains*,
// so the graph stitches the tree back together:
//
//   - every function declaration and every function literal is a node,
//     identified by a stable FuncID ("sprite/internal/core.(*Kernel).Fork",
//     "sprite/internal/rpc.Call$1") that survives re-runs and is therefore
//     usable as a summary-cache key;
//   - static calls resolve through the type checker, across packages
//     (imported *types.Func objects are distinct from their source-side
//     twins, so identity is by FuncID, not object);
//   - the spawn idioms — inline literals, local variables bound to
//     literals, method values, and same-or-cross-package closure
//     factories — are resolved at every spawn point (sim.Simulation.Spawn,
//     sim.Env.Spawn, core.Cluster.Boot) and recorded as activity roots;
//   - a literal's node hangs off its enclosing declaration with an
//     Encloses edge: when the enclosing function runs in some context, the
//     literals it builds are conservatively assumed to run there too.
//
// Dynamic dispatch — interface methods, func values threaded through
// fields or maps (rpc's service handler table) — is out of reach for any
// static pass and is deliberately unresolved; DESIGN.md §14 lists it as a
// soundness limit, covered by the kernel's runtime checks.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// FuncID is a stable, human-readable function identity:
//
//	pkgpath.Name            package-level function
//	pkgpath.(Recv).Name     method (pointer-ness of the receiver elided)
//	<parent>$<n>            n-th function literal inside parent, in
//	                        source order (stable across runs for
//	                        unchanged source — the cache key property)
type FuncID string

// EdgeKind classifies an outgoing reference.
type EdgeKind uint8

const (
	// Call is a direct static call (function, method, or a local variable
	// statically bound to a literal).
	Call EdgeKind = iota
	// Ref is a function referenced as a value (method value, function
	// passed as an argument) without a visible call. Reachability treats
	// a Ref from reachable code as reachable: the value exists to be
	// called, and the caller cannot see where.
	Ref
	// Encloses links a declaration to the literals defined inside it.
	Encloses
	// Spawn links a spawn point's caller to an activity body that starts
	// a new root (Simulation.Spawn, Cluster.Boot).
	Spawn
	// SpawnSame links an activity to a child it spawns through its own
	// Env (Env.Spawn); the child is not recorded as a separate root.
	SpawnSame
)

func (k EdgeKind) String() string {
	switch k {
	case Call:
		return "call"
	case Ref:
		return "ref"
	case Encloses:
		return "encloses"
	case Spawn:
		return "spawn"
	case SpawnSame:
		return "spawn-same"
	}
	return fmt.Sprintf("edge(%d)", k)
}

// Edge is one outgoing reference from a node.
type Edge struct {
	Callee FuncID
	Kind   EdgeKind
	// Pos is the reference site in the shared FileSet.
	Pos token.Pos
}

// Node is one function declaration or literal.
type Node struct {
	ID  FuncID
	Pkg *load.Package
	// Decl is set for declarations, Lit for literals; exactly one is
	// non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Fn is the type-checker object for declarations (nil for literals).
	Fn  *types.Func
	Out []Edge

	// scc is the condensation component index, filled by Condense.
	scc int
}

// Body returns the node's statement block (nil for a bodyless decl).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// FuncType returns the node's type expression (signature syntax).
func (n *Node) FuncType() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	return n.Lit.Type
}

// Extent returns the syntactic range whose local declarations count as the
// node's own state (for a method this includes receiver and parameters).
func (n *Node) Extent() (token.Pos, token.Pos) {
	if n.Decl != nil {
		return n.Decl.Pos(), n.Decl.End()
	}
	return n.Lit.Pos(), n.Lit.End()
}

// Root is one resolved spawn: the body that will run as an activity.
type Root struct {
	Body FuncID
	// Site is the spawn call site; Via names the spawn point ("Spawn",
	// "Boot") for diagnostics.
	Site token.Pos
	Via  string
}

// Graph is the whole-tree call graph.
type Graph struct {
	Fset  *token.FileSet
	Nodes map[FuncID]*Node
	Roots []Root

	// byObj resolves a source-side *types.Func to its node (per-package
	// view; cross-package resolution goes through FuncID).
	byObj map[*types.Func]*Node
	// litOf resolves a literal syntax node to its graph node.
	litOf map[*ast.FuncLit]*Node
	// enclosing, for diagnostics: FuncID of the node containing a pos.
	pkgs []*load.Package
}

const (
	simPkg  = "sprite/internal/sim"
	corePkg = "sprite/internal/core"
)

// FuncIDOf computes the stable identity of a declared function or method.
// Works for both source-side and gc-imported objects.
func FuncIDOf(fn *types.Func) FuncID {
	if fn.Pkg() == nil {
		return FuncID(fn.Name()) // builtins like error.Error
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
		}
		if named, okn := t.(*types.Named); okn {
			return FuncID(fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name())
		}
	}
	return FuncID(fn.Pkg().Path() + "." + fn.Name())
}

// Build constructs the graph over the loaded packages. The packages must
// share one FileSet (load.Packages guarantees it).
func Build(pkgs []*load.Package) *Graph {
	g := &Graph{
		Nodes: make(map[FuncID]*Node),
		byObj: make(map[*types.Func]*Node),
		litOf: make(map[*ast.FuncLit]*Node),
		pkgs:  pkgs,
	}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	// Pass 1: create nodes for every declaration and literal.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				id := FuncIDOf(fn)
				n := &Node{ID: id, Pkg: pkg, Decl: fd, Fn: fn}
				g.Nodes[id] = n
				g.byObj[fn] = n
				if fd.Body != nil {
					g.addLits(pkg, id, fd.Body)
				}
			}
			// Literals in package-level var initializers hang off a
			// synthetic per-file init node.
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				initID := FuncID(pkg.ImportPath + ".init#" + baseName(pkg.Fset.Position(f.Pos()).Filename))
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						g.addLits(pkg, initID, v)
					}
				}
			}
		}
	}
	// Pass 2: edges and spawn roots.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.addEdges(pkg, g.byObj[fn], fd.Body)
			}
		}
	}
	sort.Slice(g.Roots, func(i, j int) bool { return g.Roots[i].Site < g.Roots[j].Site })
	return g
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// addLits creates nodes for every function literal directly under root
// (a body block or initializer expression — never itself a node already
// registered), numbered in source order under parent; literals nested
// inside a literal number under that literal, recursively, so the ID
// encodes the lexical nesting ("pkg.F$2$1").
func (g *Graph) addLits(pkg *load.Package, parent FuncID, root ast.Node) {
	ord := 0
	ast.Inspect(root, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ord++
		id := FuncID(fmt.Sprintf("%s$%d", parent, ord))
		node := &Node{ID: id, Pkg: pkg, Lit: lit}
		g.Nodes[id] = node
		g.litOf[lit] = node
		g.addLits(pkg, id, lit.Body)
		return false
	})
}

// addEdges walks owner's body recording call, ref, encloses, and spawn
// edges; enclosed literals get their own walks (recursively) so every
// node's edges reflect only its own body.
func (g *Graph) addEdges(pkg *load.Package, owner *Node, body *ast.BlockStmt) {
	g.walkEdges(pkg, owner, body)
}

// walkEdges records owner's outgoing references, shallow (literals are
// separate nodes, linked by an Encloses edge and walked recursively).
func (g *Graph) walkEdges(pkg *load.Package, owner *Node, body *ast.BlockStmt) {
	// Pass 1: calls, spawn points, and enclosed literals.
	inspectShallow(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if e2 := g.litOf[e]; e2 != nil && e2.ID != owner.ID {
				owner.Out = append(owner.Out, Edge{Callee: e2.ID, Kind: Encloses, Pos: e.Pos()})
				g.walkEdges(pkg, e2, e.Body)
			}
			return false
		case *ast.CallExpr:
			g.callEdge(pkg, owner, e)
			return true
		}
		return true
	})
	// Pass 2: collect call-callee syntax so pass 3 doesn't re-report every
	// call as a value reference. For a method/selector callee both the
	// selector and its Sel ident are excluded.
	callees := make(map[ast.Node]bool)
	sels := make(map[*ast.Ident]bool)
	inspectShallow(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(e.Fun)
			callees[fun] = true
			if s, ok := fun.(*ast.SelectorExpr); ok {
				callees[s.Sel] = true
			}
		case *ast.SelectorExpr:
			// Any selector's Sel is reported (if at all) via the
			// SelectorExpr case in pass 3, never via the bare-Ident case.
			sels[e.Sel] = true
		}
		return true
	})
	// Pass 3: function values referenced without a call (method values,
	// functions passed as arguments). Reachability treats a Ref from live
	// code as live — the value exists to be called later.
	inspectShallow(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var id *ast.Ident
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if callees[e] || callees[e.Sel] {
				return true
			}
			id = e.Sel
		case *ast.Ident:
			if callees[n.(ast.Node)] || sels[e] {
				return true
			}
			id = e
		default:
			return true
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			owner.Out = append(owner.Out, Edge{Callee: FuncIDOf(fn), Kind: Ref, Pos: id.Pos()})
		}
		return true
	})
}

// callEdge records the edge(s) for one call expression, plus spawn roots
// at spawn points.
func (g *Graph) callEdge(pkg *load.Package, owner *Node, call *ast.CallExpr) {
	if fn := lint.FuncObjOf(pkg.Info, call); fn != nil {
		owner.Out = append(owner.Out, Edge{Callee: FuncIDOf(fn), Kind: Call, Pos: call.Pos()})
		g.spawnRoots(pkg, owner, call, fn)
		return
	}
	// Calling a local variable statically bound to a literal:
	// body := func(...){...}; body().
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, okv := pkg.Info.Uses[id].(*types.Var); okv {
			if lit := litBoundTo(pkg, v); lit != nil {
				if ln := g.litOf[lit]; ln != nil {
					owner.Out = append(owner.Out, Edge{Callee: ln.ID, Kind: Call, Pos: call.Pos()})
				}
			}
		}
	}
	// Immediately-invoked literal: func(){...}().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if ln := g.litOf[lit]; ln != nil {
			owner.Out = append(owner.Out, Edge{Callee: ln.ID, Kind: Call, Pos: call.Pos()})
		}
	}
}

// spawnPoint reports whether fn hands its final func argument to a new
// activity, naming the spawn point and returning that argument.
func spawnPoint(fn *types.Func, call *ast.CallExpr) (via string, arg ast.Expr, ok bool) {
	switch {
	case lint.IsMethod(fn, simPkg, "Simulation", "Spawn"):
		via = "Spawn"
	case lint.IsMethod(fn, simPkg, "Env", "Spawn"):
		via = "Env.Spawn"
	case lint.IsMethod(fn, corePkg, "Cluster", "Boot"):
		via = "Boot"
	default:
		return "", nil, false
	}
	if len(call.Args) != 2 {
		return "", nil, false
	}
	return via, call.Args[1], true
}

// spawnRoots resolves the activity argument at spawn points and records
// roots plus Spawn edges.
func (g *Graph) spawnRoots(pkg *load.Package, owner *Node, call *ast.CallExpr, fn *types.Func) {
	via, arg, ok := spawnPoint(fn, call)
	if !ok {
		return
	}
	for _, body := range g.resolveFuncExpr(pkg, arg) {
		// Env.Spawn roots are not recorded: the child is part of its
		// parent activity's subtree, reached through the SpawnSame edge.
		if via == "Env.Spawn" {
			owner.Out = append(owner.Out, Edge{Callee: body, Kind: SpawnSame, Pos: call.Pos()})
			continue
		}
		owner.Out = append(owner.Out, Edge{Callee: body, Kind: Spawn, Pos: call.Pos()})
		g.Roots = append(g.Roots, Root{Body: body, Site: call.Pos(), Via: via})
	}
}

// ResolveFuncExpr resolves an expression used as an activity/callback to
// the nodes whose bodies it denotes: an inline literal, a named function
// or method value (any package in the graph), a local variable bound to a
// literal, or a closure factory call whose declaration returns literals
// (followed across packages through the graph's node index).
func (g *Graph) ResolveFuncExpr(pkg *load.Package, e ast.Expr) []FuncID {
	return g.resolveFuncExpr(pkg, e)
}

func (g *Graph) resolveFuncExpr(pkg *load.Package, e ast.Expr) []FuncID {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := g.litOf[e]; n != nil {
			return []FuncID{n.ID}
		}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			return []FuncID{FuncIDOf(obj)}
		case *types.Var:
			if lit := litBoundTo(pkg, obj); lit != nil {
				if n := g.litOf[lit]; n != nil {
					return []FuncID{n.ID}
				}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return []FuncID{FuncIDOf(fn)}
		}
	case *ast.CallExpr:
		// Closure factory: resolve the factory's declaration (cross-package
		// through the node index) and collect returned literals.
		fn := lint.FuncObjOf(pkg.Info, e)
		if fn == nil {
			return nil
		}
		factory := g.Nodes[FuncIDOf(fn)]
		if factory == nil || factory.Decl == nil || factory.Decl.Body == nil {
			return nil
		}
		var out []FuncID
		ast.Inspect(factory.Decl.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, r := range ret.Results {
					if lit, okl := ast.Unparen(r).(*ast.FuncLit); okl {
						if ln := g.litOf[lit]; ln != nil {
							out = append(out, ln.ID)
						}
					}
				}
			}
			_, isLit := n.(*ast.FuncLit)
			return !isLit
		})
		return out
	}
	return nil
}

// litBoundTo finds the literal a local variable was defined as (`v :=
// func(...){...}` or `var v = func(...){...}`), or nil.
func litBoundTo(pkg *load.Package, v *types.Var) *ast.FuncLit {
	for _, f := range pkg.Files {
		if f.FileStart > v.Pos() || v.Pos() > f.FileEnd {
			continue
		}
		var found *ast.FuncLit
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || pkg.Info.Defs[id] != types.Object(v) {
						continue
					}
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						found = lit
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if pkg.Info.Defs[id] != types.Object(v) || i >= len(n.Values) {
						continue
					}
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						found = lit
					}
				}
			}
			return found == nil
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// inspectShallow walks n without descending into nested function literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return fn(m) && false
		}
		return fn(m)
	})
}

// SCC is one strongly connected component of the call graph (Call edges
// only — Encloses/Spawn/Ref edges do not create recursion for summary
// purposes, but see Condense's flow note).
type SCC struct {
	Funcs []FuncID
}

// Condense computes the SCC condensation of the graph restricted to the
// edge kinds that carry dataflow (Call, Encloses — an enclosed literal's
// summary feeds its parent; Ref and Spawn link contexts, not dataflow) and
// returns the components in reverse topological order: every component
// appears after all components it calls into, so a bottom-up summary pass
// can run them in slice order and see callee summaries already fixed.
// Within a component (mutual recursion) callers iterate to a fixpoint.
func (g *Graph) Condense() []SCC {
	// Tarjan, iterative (the tree's call chains are deep enough that a
	// recursive implementation risks the goroutine stack on pathological
	// fixtures).
	ids := make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	index := make(map[FuncID]int, len(ids))
	low := make(map[FuncID]int, len(ids))
	onStack := make(map[FuncID]bool, len(ids))
	var stack []FuncID
	var comps [][]FuncID
	next := 0

	dataEdge := func(e Edge) bool { return e.Kind == Call || e.Kind == Encloses }

	type frame struct {
		id FuncID
		ei int
	}
	for _, start := range ids {
		if _, seen := index[start]; seen {
			continue
		}
		var frames []frame
		push := func(id FuncID) {
			index[id] = next
			low[id] = next
			next++
			stack = append(stack, id)
			onStack[id] = true
			frames = append(frames, frame{id: id})
		}
		push(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := g.Nodes[f.id]
			advanced := false
			for f.ei < len(n.Out) {
				e := n.Out[f.ei]
				f.ei++
				if !dataEdge(e) {
					continue
				}
				callee := e.Callee
				if _, ok := g.Nodes[callee]; !ok {
					continue // external (stdlib / trusted) — a leaf
				}
				if _, seen := index[callee]; !seen {
					push(callee)
					advanced = true
					break
				} else if onStack[callee] {
					if index[callee] < low[f.id] {
						low[f.id] = index[callee]
					}
				}
			}
			if advanced {
				continue
			}
			// f exhausted: pop.
			if low[f.id] == index[f.id] {
				var comp []FuncID
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == f.id {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				for _, id := range comp {
					g.Nodes[id].scc = len(comps)
				}
				comps = append(comps, comp)
			}
			done := f.id
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done] < low[parent.id] {
					low[parent.id] = low[done]
				}
			}
		}
	}
	// Tarjan emits components in reverse topological order already.
	out := make([]SCC, len(comps))
	for i, c := range comps {
		out[i] = SCC{Funcs: c}
	}
	return out
}

// Dump renders the graph as sorted "caller -> callee [kind]" lines plus
// the root list — the `spritelint -graph` / `make lint-graph` debugging
// format.
func (g *Graph) Dump() string {
	var b strings.Builder
	ids := make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Nodes[id]
		edges := append([]Edge(nil), n.Out...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Callee != edges[j].Callee {
				return edges[i].Callee < edges[j].Callee
			}
			return edges[i].Kind < edges[j].Kind
		})
		for _, e := range edges {
			fmt.Fprintf(&b, "%s -> %s [%s]\n", id, e.Callee, e.Kind)
		}
	}
	for _, r := range g.Roots {
		fmt.Fprintf(&b, "root %s via %s at %s\n", r.Body, r.Via, g.Fset.Position(r.Site))
	}
	return b.String()
}
