// Package walltime forbids reading or waiting on the wall clock inside the
// simulation tree. Everything the repo's goldens, the migbench regression
// gate, and the seed-replayable fuzzer promise rests on simulated code
// seeing only virtual time (sim.Env.Now/Sleep); one stray time.Now() turns
// a byte-identical replay into a flaky one. time.Duration values and
// time.Time arithmetic remain fine — only the functions that sample or
// schedule against the real clock are banned.
package walltime

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"sprite/internal/analysis/lint"
)

// Banned are the time-package functions that sample or wait on the wall
// clock. Referencing one at all (called or passed as a value) is a
// violation.
var Banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// AllowedFiles lists file base names exempt from the check: the wall-clock
// benchmark path (Makefile bench-wallclock) measures the simulator's real
// speed, so its files legitimately touch the host clock, and a file named
// wallclock.go is reserved for code whose subject is host elapsed time.
var AllowedFiles = map[string]bool{
	"bench_test.go": true,
	"wallclock.go":  true,
}

// Analyzer is the walltime check.
var Analyzer = &lint.Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads (time.Now, time.Sleep, ...) in simulated code; virtual time must come from sim.Env",
	Run:  run,
}

func run(pass *lint.Pass) (any, error) {
	for _, f := range pass.Files {
		if AllowedFiles[filepath.Base(pass.Filename(f.Pos()))] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !Banned[fn.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "wall-clock time.%s in simulated code: derive time from sim.Env (virtual clock) instead", fn.Name())
			return true
		})
	}
	return nil, nil
}
