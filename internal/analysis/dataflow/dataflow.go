// Package dataflow computes bottom-up per-function summaries over the
// SCC-condensed call graph (internal/analysis/callgraph) and exposes them
// to the interprocedural analyzer (simtaint) as a Tree.
//
// The engine is deliberately modest (DESIGN.md §14): flow- and
// path-insensitive, one taint environment per top-level declaration
// (nested literals share their parent's environment, so captured-variable
// taint propagates lexically), with a small bit-lattice per value:
//
//	bits 0..7   taint sources — wall clock, global rand, map order
//	bits 8..63  parameter markers: "this value derives from param i"
//
// A function's Summary says what callers need and nothing more: the taint
// its return values carry, which parameters flow to its returns, which
// parameters reach a determinism-sensitive sink (trace emission, metrics
// values), which parameters and package-level variables it mutates, and
// whether it performs order-sensitive emission (the interprocedural half
// of the maporder contract). Everything is monotone over a finite
// lattice, so the bottom-up pass — components in the condensation's
// reverse topological order, iterating inside recursive components —
// terminates; TestRecursiveConvergence pins that.
//
// Tainted sink hits are recorded per node with stable file:line positions
// so they can be cached per package and replayed without re-analysis;
// simtaint joins them against file exemptions.
package dataflow

import (
	"go/token"
	"reflect"
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// Kind is the taint lattice: source bits plus parameter markers.
type Kind uint64

const (
	KWalltime   Kind = 1 << 0 // derived from the wall clock (time.Now, ...)
	KGlobalRand Kind = 1 << 1 // derived from package-level math/rand state
	KMapOrder   Kind = 1 << 2 // derived from map iteration order

	// SourceMask selects the source bits.
	SourceMask Kind = 0xFF

	// markerShift is the first parameter-marker bit; markers above
	// maxMarkers params are dropped (conservative: no flow info).
	markerShift = 8
	maxMarkers  = 56
)

// SourceString names the source bits for diagnostics.
func (k Kind) SourceString() string {
	var parts []string
	if k&KWalltime != 0 {
		parts = append(parts, "wall-clock")
	}
	if k&KGlobalRand != 0 {
		parts = append(parts, "global-rand")
	}
	if k&KMapOrder != 0 {
		parts = append(parts, "map-order")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, "+")
}

func paramMark(i int) Kind {
	if i < 0 || i >= maxMarkers {
		return 0
	}
	return 1 << (markerShift + i)
}

// SinkHit is a tainted value reaching a determinism-sensitive sink.
type SinkHit struct {
	Pos   token.Position `json:"pos"`
	Kinds Kind           `json:"kinds"` // source bits that arrived
	Sink  string         `json:"sink"`  // what it reached ("trace.(Log).Append", "via q.helper", ...)
}

// RangeEmitHit is a call, inside a map-range body, to a function whose
// summary says it emits order-sensitively — the interprocedural maporder
// violation the per-function analyzer cannot see.
type RangeEmitHit struct {
	Pos    token.Position   `json:"pos"`
	Callee callgraph.FuncID `json:"callee"`
}

// Summary is what callers may rely on about one function.
type Summary struct {
	// ReturnTaint are source bits every caller receives.
	ReturnTaint Kind `json:"return_taint,omitempty"`
	// ReturnFromParams: bit i set = param i's taint flows to the return.
	// Param numbering includes the receiver first, when there is one.
	ReturnFromParams uint64 `json:"return_from_params,omitempty"`
	// SinkParams: bit i set = param i reaches a determinism-sensitive
	// sink inside this function or a callee.
	SinkParams uint64 `json:"sink_params,omitempty"`
	// Emits: the function performs order-sensitive emission (output,
	// trace, append/send to caller-visible state), directly or via a
	// callee — calling it once per map-range iteration emits in map
	// order.
	Emits bool `json:"emits,omitempty"`

	// SinkHits and RangeEmitHits are the simtaint raw findings for this
	// node, before file exemptions and suppressions.
	SinkHits      []SinkHit      `json:"sink_hits,omitempty"`
	RangeEmitHits []RangeEmitHit `json:"range_emit_hits,omitempty"`
}

// TreeAnalyzer is a whole-tree analyzer driven by cmd/spritelint.
type TreeAnalyzer struct {
	Name string
	Doc  string
	Run  func(*Tree) ([]lint.Diagnostic, error)
}

// Tree is the analyzed whole program.
type Tree struct {
	Pkgs  []*load.Package
	Graph *callgraph.Graph
	Sums  map[callgraph.FuncID]*Summary

	// CacheHits/CacheMisses count per-package summary cache outcomes.
	CacheHits, CacheMisses int

	pkgOf   map[callgraph.FuncID]*load.Package
	testFns map[callgraph.FuncID]bool
}

const (
	simPkg     = "sprite/internal/sim"
	corePkg    = "sprite/internal/core"
	tracePkg   = "sprite/internal/trace"
	metricsPkg = "sprite/internal/metrics"
	statsPkg   = "sprite/internal/stats"
)

// Trusted reports whether a package's interior is exempt from analysis:
// the simulation substrate and the analysis tooling itself. Their public
// APIs are modeled (models table) instead of analyzed.
func Trusted(importPath string) bool {
	switch importPath {
	case simPkg, tracePkg, metricsPkg, statsPkg:
		return true
	}
	return strings.HasPrefix(importPath, "sprite/internal/analysis")
}

// models classifies the trusted and stdlib APIs the analyzers care about.
// Param numbering counts the receiver as param 0.
var models = map[callgraph.FuncID]*Summary{
	// Trace emission: the determinism goldens' raw material.
	tracePkg + ".(Log).Append": {SinkParams: pbits(1, 2, 3), Emits: true},
	// Metrics values land in Snapshot.Text, which goldens compare.
	metricsPkg + ".(Counter).Add":    {SinkParams: pbits(1)},
	metricsPkg + ".(Timing).Observe": {SinkParams: pbits(1)},
	metricsPkg + ".(Gauge).Set":      {SinkParams: pbits(1)},
	metricsPkg + ".(Gauge).Add":      {SinkParams: pbits(1)},
	// Deterministic clocks/randomness: returns are clean.
	simPkg + ".(Env).Now":  {},
	simPkg + ".(Env).Rand": {},
	// Stdlib map-order sources.
	"maps.Keys":               {ReturnTaint: KMapOrder},
	"maps.Values":             {ReturnTaint: KMapOrder},
	"reflect.(Value).MapKeys": {ReturnTaint: KMapOrder},
}

func pbits(is ...int) uint64 {
	var b uint64
	for _, i := range is {
		b |= 1 << i
	}
	return b
}

// Options configures Analyze.
type Options struct {
	// Cache, when non-nil, loads/stores per-package summaries.
	Cache *Cache
}

// Analyze builds the call graph and computes summaries bottom-up.
func Analyze(pkgs []*load.Package, opts Options) *Tree {
	t := &Tree{
		Pkgs:    pkgs,
		Graph:   callgraph.Build(pkgs),
		Sums:    make(map[callgraph.FuncID]*Summary),
		pkgOf:   make(map[callgraph.FuncID]*load.Package),
		testFns: make(map[callgraph.FuncID]bool),
	}
	for id, n := range t.Graph.Nodes {
		t.pkgOf[id] = n.Pkg
		pos, _ := n.Extent()
		if strings.HasSuffix(n.Pkg.Fset.Position(pos).Filename, "_test.go") {
			t.testFns[id] = true
		}
	}

	// Per-package cache: a hit ships the package's summaries wholesale
	// and removes its units from the fixpoint.
	cached := make(map[string]bool)
	if opts.Cache != nil {
		for _, pkg := range pkgs {
			if Trusted(pkg.ImportPath) {
				continue
			}
			if sums, ok := opts.Cache.Load(pkg, pkgs); ok {
				for id, s := range sums {
					t.Sums[id] = s
				}
				cached[pkg.ImportPath] = true
				t.CacheHits++
			} else {
				t.CacheMisses++
			}
		}
	}

	// Units: one per top-level declaration (plus orphan literals from
	// package-level initializers), skipping trusted packages, test files,
	// and cached packages. Ordered callees-first by the condensation so
	// one pass settles non-recursive code.
	units := t.collectUnits(cached)
	order := t.unitOrder(units)

	for round := 0; round < 32; round++ {
		changed := false
		for _, u := range order {
			for _, upd := range t.analyzeUnit(units[u]) {
				old := t.Sums[upd.id]
				if old == nil || !reflect.DeepEqual(old, upd.sum) {
					t.Sums[upd.id] = upd.sum
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	if opts.Cache != nil {
		for _, pkg := range pkgs {
			if Trusted(pkg.ImportPath) || cached[pkg.ImportPath] {
				continue
			}
			sums := make(map[callgraph.FuncID]*Summary)
			for id, s := range t.Sums {
				if t.pkgOf[id] == pkg {
					sums[id] = s
				}
			}
			opts.Cache.Store(pkg, pkgs, sums)
		}
	}
	return t
}

// SummaryFor resolves a callee's summary: models first (the trusted API
// surface), then computed/cached summaries. Nil means unknown — callers
// must be conservative.
func (t *Tree) SummaryFor(id callgraph.FuncID) *Summary {
	if m, ok := models[id]; ok {
		return m
	}
	return t.Sums[id]
}

// unitRoot is one top-level declaration plus its enclosed literals.
type unitRoot struct {
	root  *callgraph.Node
	nodes []*callgraph.Node // root first, then literals, source order
}

func (t *Tree) collectUnits(cachedPkgs map[string]bool) map[callgraph.FuncID]*unitRoot {
	ids := make([]string, 0, len(t.Graph.Nodes))
	for id := range t.Graph.Nodes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	units := make(map[callgraph.FuncID]*unitRoot)
	for _, s := range ids {
		id := callgraph.FuncID(s)
		n := t.Graph.Nodes[id]
		if Trusted(n.Pkg.ImportPath) || cachedPkgs[n.Pkg.ImportPath] || t.testFns[id] {
			continue
		}
		if n.Decl == nil && !t.orphanLit(id) {
			continue // literal owned by a declaration's unit
		}
		u := &unitRoot{root: n}
		u.nodes = append(u.nodes, n)
		t.addEnclosed(n, &u.nodes)
		units[id] = u
	}
	return units
}

// orphanLit: a literal whose parent ID is not a node (package-level var
// initializer literals, "pkg.init#file$1") roots its own unit.
func (t *Tree) orphanLit(id callgraph.FuncID) bool {
	i := strings.LastIndexByte(string(id), '$')
	if i < 0 {
		return true
	}
	_, ok := t.Graph.Nodes[callgraph.FuncID(string(id)[:i])]
	return !ok
}

func (t *Tree) addEnclosed(n *callgraph.Node, out *[]*callgraph.Node) {
	for _, e := range n.Out {
		if e.Kind != callgraph.Encloses {
			continue
		}
		if c := t.Graph.Nodes[e.Callee]; c != nil {
			*out = append(*out, c)
			t.addEnclosed(c, out)
		}
	}
}

// unitOrder sorts unit roots callees-first using the SCC condensation.
func (t *Tree) unitOrder(units map[callgraph.FuncID]*unitRoot) []callgraph.FuncID {
	sccs := t.Graph.Condense()
	rank := make(map[callgraph.FuncID]int)
	for i, s := range sccs {
		for _, f := range s.Funcs {
			rank[f] = i
		}
	}
	ids := make([]callgraph.FuncID, 0, len(units))
	for id := range units {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ri, rj := rank[ids[i]], rank[ids[j]]
		if ri != rj {
			return ri < rj
		}
		return ids[i] < ids[j]
	})
	return ids
}
