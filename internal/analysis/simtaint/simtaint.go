// Package simtaint reports nondeterministic values — wall clock, global
// rand, map iteration order — reaching determinism-sensitive sinks (trace
// emission, metrics values, output) through call chains.
//
// The per-function walltime/globalrand/maporder analyzers flag the source
// expressions themselves; simtaint closes the interprocedural gap: a
// helper that returns time.Now().String() is clean in isolation, and so
// is the caller that hands an opaque string to a trace Log — only the
// whole-tree taint summaries (internal/analysis/dataflow) connect the
// two. Diagnostics land at the call site where the tainted value enters
// the sink, the one place a fix applies.
//
// Files on walltime's allow list (wallclock.go, bench_test.go) keep
// their wall-clock exemption: taint is still computed through them, but
// wall-clock sink hits inside them are not reported.
package simtaint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/walltime"
)

// Analyzer is the whole-tree taint checker.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "simtaint",
	Doc:  "nondeterministic values reaching trace/metrics/output sinks through call chains",
	Run:  run,
}

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	ids := make([]callgraph.FuncID, 0, len(t.Sums))
	for id := range t.Sums {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var diags []lint.Diagnostic
	for _, id := range ids {
		s := t.Sums[id]
		for _, h := range s.SinkHits {
			kinds := h.Kinds & dataflow.SourceMask
			if walltime.AllowedFiles[filepath.Base(h.Pos.Filename)] {
				kinds &^= dataflow.KWalltime
			}
			if kinds == 0 {
				continue
			}
			diags = append(diags, lint.Diagnostic{
				Pos:      h.Pos,
				Analyzer: "simtaint",
				Message: fmt.Sprintf(
					"%s-derived value reaches %s; goldens and seed replay diverge — derive it from env.Now()/env.Rand() or keep it out of the sink",
					kinds.SourceString(), h.Sink),
			})
		}
		for _, h := range s.RangeEmitHits {
			diags = append(diags, lint.Diagnostic{
				Pos:      h.Pos,
				Analyzer: "simtaint",
				Message: fmt.Sprintf(
					"%s emits order-sensitively and is called once per map iteration; iterate a sorted copy of the keys",
					short(h.Callee)),
			})
		}
	}
	sortDiags(diags)
	return diags, nil
}

func short(id callgraph.FuncID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func sortDiags(diags []lint.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
