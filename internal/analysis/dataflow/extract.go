package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
)

// extract computes each node's Summary from the converged taint
// environment: returns, sinks, emission, contract facts. Facts are
// shallow — each node owns its body minus nested literals, which carry
// their own — so reachability joins attribute violations to the function
// that actually runs them.
func (st *unitState) extract() {
	for _, n := range st.u.nodes {
		st.sums[n.ID] = &Summary{}
	}
	for _, n := range st.u.nodes {
		st.extractNode(n)
	}
}

// emitMethodNames are the order-sensitive output methods maporder
// recognizes; a call on an escaping receiver makes the function an
// emitter.
var emitMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Emit": true, "emit": true,
}

func (st *unitState) extractNode(n *callgraph.Node) {
	sum := st.sums[n.ID]
	body := n.Body()
	if body == nil {
		return
	}
	inspectShallow(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range nd.Results {
				k := st.kindOf(r)
				sum.ReturnTaint |= k & SourceMask
				st.markerFold(k, func(o markerOwner) {
					if o.node == n.ID {
						sum.ReturnFromParams |= 1 << o.param
					}
				})
			}
		case *ast.AssignStmt:
			st.extractAssign(n, sum, nd)
		case *ast.SendStmt:
			sum.Emits = true
		case *ast.CallExpr:
			st.extractCall(n, sum, nd)
		case *ast.RangeStmt:
			st.extractRange(n, sum, nd)
		}
		return true
	})
}

// markerFold visits the owners of every marker bit set in k.
func (st *unitState) markerFold(k Kind, f func(markerOwner)) {
	for bit := 0; bit < len(st.markers); bit++ {
		if k&paramMark(bit) != 0 {
			f(st.markers[bit])
		}
	}
}

// extractAssign records order-sensitive emission: append or string
// concatenation into escaping state.
func (st *unitState) extractAssign(n *callgraph.Node, sum *Summary, a *ast.AssignStmt) {
	if a.Tok == token.DEFINE {
		return
	}
	for i, lhs := range a.Lhs {
		// Emission: x = append(x, ...) or s += ... into escaping state.
		if i < len(a.Rhs) {
			rhs := a.Rhs[i]
			isAppend := false
			if c, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
					if b, ok := st.info().Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						isAppend = true
					}
				}
			}
			isConcat := a.Tok == token.ADD_ASSIGN && isStringType(st.info(), lhs)
			if (isAppend || isConcat) && st.escaping(n, baseObj(st.info(), lhs)) {
				sum.Emits = true
			}
		}
	}
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// paramOf finds which unit node owns obj as a parameter, and its index.
func (st *unitState) paramOf(obj types.Object) (callgraph.FuncID, int, bool) {
	for id, ps := range st.params {
		for i, p := range ps {
			if p == obj {
				return id, i, true
			}
		}
	}
	return "", 0, false
}

// refLike: writes through this type are visible to whoever shares it.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// escaping: mutating state rooted at obj is visible outside node n — the
// base is declared outside n, is package-level, or is a reference-like
// parameter of n.
func (st *unitState) escaping(n *callgraph.Node, obj types.Object) bool {
	if obj == nil {
		return true // derived from a call or unresolvable: be conservative
	}
	if isGlobalVar(obj) {
		return true
	}
	if _, _, isParam := st.paramOf(obj); isParam {
		return refLike(obj.Type())
	}
	start, end := n.Extent()
	return obj.Pos() < start || obj.Pos() > end
}

func (st *unitState) extractCall(n *callgraph.Node, sum *Summary, call *ast.CallExpr) {
	info := st.info()

	// close() on a channel has no summary effect.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
			return
		}
	}

	fn := lint.FuncObjOf(info, call)
	if fn != nil {
		// Output emission.
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
			sum.Emits = true
			st.sinkArgs(n, sum, call, call.Args, ^uint64(0), "fmt."+fn.Name())
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			sum.Emits = true
			st.sinkArgs(n, sum, call, call.Args[1:], ^uint64(0), "fmt."+fn.Name())
		}
		// Sink methods (Write/Emit/...) on escaping receivers.
		if emitMethodNames[fn.Name()] {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
				if st.escaping(n, baseObj(info, sel.X)) {
					sum.Emits = true
				}
			}
		}
	}

	// Resolved callees: sinks and emission via summaries.
	args := effectiveArgs(info, call)
	for _, id := range st.t.Graph.ResolveFuncExpr(st.pkg, call.Fun) {
		s := st.t.SummaryFor(id)
		if s == nil {
			continue
		}
		if s.SinkParams != 0 {
			// A modeled callee IS the sink; a computed one passes the
			// value along to a sink somewhere below it.
			sink := "via " + shortID(id)
			if _, isModel := models[id]; isModel {
				sink = shortID(id)
			}
			st.sinkArgsAt(n, sum, call, args, s.SinkParams, sink)
		}
		if s.Emits {
			sum.Emits = true
		}
	}
}

// sinkArgsAt records tainted values reaching the sink-positions of a
// callee, and propagates "my param reaches a sink" facts to param owners.
func (st *unitState) sinkArgsAt(n *callgraph.Node, sum *Summary, call *ast.CallExpr, args []ast.Expr, sinkBits uint64, sink string) {
	for i := 0; i < len(args) && i < 64; i++ {
		if sinkBits&(1<<i) == 0 {
			continue
		}
		st.sinkOne(n, sum, call, args[i], sink)
	}
}

// sinkArgs treats every listed argument as sink-reaching (variadic output
// calls like fmt.Println).
func (st *unitState) sinkArgs(n *callgraph.Node, sum *Summary, call *ast.CallExpr, args []ast.Expr, _ uint64, sink string) {
	for _, a := range args {
		st.sinkOne(n, sum, call, a, sink)
	}
}

func (st *unitState) sinkOne(n *callgraph.Node, sum *Summary, call *ast.CallExpr, arg ast.Expr, sink string) {
	k := st.kindOf(arg)
	if srcs := k & SourceMask; srcs != 0 {
		sum.SinkHits = append(sum.SinkHits, SinkHit{
			Pos:   st.pkg.Fset.Position(call.Pos()),
			Kinds: srcs,
			Sink:  sink,
		})
	}
	st.markerFold(k, func(o markerOwner) {
		if s := st.sums[o.node]; s != nil {
			s.SinkParams |= 1 << o.param
		}
	})
}

// extractRange records interprocedural maporder hits: calls inside a
// map-range body to callees whose summaries emit order-sensitively, with
// no later sort to forgive them.
func (st *unitState) extractRange(n *callgraph.Node, sum *Summary, rng *ast.RangeStmt) {
	tv, ok := st.info().Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if st.sortAfter(rng.End()) {
		return
	}
	ast.Inspect(rng.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, id := range st.t.Graph.ResolveFuncExpr(st.pkg, call.Fun) {
			if _, isModel := models[id]; isModel {
				continue // direct trusted sinks are the intra analyzer's turf
			}
			s := st.t.SummaryFor(id)
			if s != nil && s.Emits {
				sum.RangeEmitHits = append(sum.RangeEmitHits, RangeEmitHit{
					Pos:    st.pkg.Fset.Position(call.Pos()),
					Callee: id,
				})
			}
		}
		return true
	})
}

func (st *unitState) sortAfter(pos token.Pos) bool {
	for _, p := range st.sortPos {
		if p > pos {
			return true
		}
	}
	return false
}

// shortID trims the import-path directory from a FuncID for messages:
// "sprite/internal/sim.(Env).Emit" -> "sim.(Env).Emit".
func shortID(id callgraph.FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// inspectShallow walks n without descending into nested function literals
// (they are separate graph nodes with their own facts).
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return fn(m) && false
		}
		return fn(m)
	})
}
