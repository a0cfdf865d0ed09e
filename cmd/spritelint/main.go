// Command spritelint is the project's multichecker: it runs the
// internal/analysis suite — the per-function analyzers walltime,
// globalrand, maporder, failpointreg, metricname, and the interprocedural
// tree analyzers simtaint and deadcode — over the requested packages and
// fails (exit 1) on any violation. The analyzers statically enforce the
// contracts everything else in this repo only promises: byte-identical
// goldens, seed-replayable fuzzing, the exact virtual-time regression
// gate, and a failpoint/metric namespace shared by code, tests, and
// DESIGN.md §11 — simtaint proving the determinism contract across call
// chains, deadcode keeping every function reachable from a root
// (DESIGN.md §14).
//
// Usage:
//
//	spritelint [flags] [packages]
//
// With no packages, ./... is linted. Only a whole-tree run (a ./...
// pattern) runs deadcode and cross-checks the failpoint registry for dead
// entries — registered names no code references.
//
//	-list              print the analyzers and exit
//	-json              emit diagnostics and run metadata as JSON
//	-graph             dump the whole-tree call graph (roots included) and exit
//	-deadallow         report //spritelint:allow comments that suppressed
//	                   nothing this run (run whole-tree so every analyzer votes)
//	-cache             reuse per-package dataflow summaries across runs (default true)
//	-cachedir DIR      summary cache location (default: user cache dir)
//	-audit-failpoints  print every constant failpoint name found at a
//	                   fault-plane call site (the registry audit) and exit
//	-deadcheck         enable the dead-registry-entry check (default true;
//	                   effective only with a ./... pattern)
//	-debug             print per-package load/type-check diagnostics
//
// Violations are suppressed line by line with
//
//	//spritelint:allow <analyzer>[,<analyzer>] <rationale>
//
// covering the full extent of the statement the comment is attached to,
// per the policy in DESIGN.md §11.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/deadcode"
	"sprite/internal/analysis/failpointreg"
	"sprite/internal/analysis/globalrand"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
	"sprite/internal/analysis/maporder"
	"sprite/internal/analysis/metricname"
	"sprite/internal/analysis/simtaint"
	"sprite/internal/analysis/walltime"
)

var analyzers = []*lint.Analyzer{
	walltime.Analyzer,
	globalrand.Analyzer,
	maporder.Analyzer,
	failpointreg.Analyzer,
	metricname.Analyzer,
}

var treeAnalyzers = []*dataflow.TreeAnalyzer{
	simtaint.Analyzer,
	deadcode.Analyzer,
}

// jsonReport is the -json output schema, kept stable for CI artifacts.
type jsonReport struct {
	Packages    int               `json:"packages"`
	Analyzers   int               `json:"analyzers"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	StaleAllows []lint.StaleAllow `json:"stale_allows,omitempty"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics and run metadata as JSON")
	graph := flag.Bool("graph", false, "dump the whole-tree call graph and exit")
	deadallow := flag.Bool("deadallow", false, "report allow comments that suppressed nothing this run")
	useCache := flag.Bool("cache", true, "reuse per-package dataflow summaries across runs")
	cacheDir := flag.String("cachedir", dataflow.DefaultCacheDir(), "summary cache location")
	audit := flag.Bool("audit-failpoints", false, "print every constant failpoint name at a fault-plane call site and exit")
	deadcheck := flag.Bool("deadcheck", true, "flag registered failpoints no analyzed code references (whole-tree runs only)")
	debug := flag.Bool("debug", false, "print per-package load/type-check diagnostics")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		for _, a := range treeAnalyzers {
			fmt.Printf("%-14s %s (interprocedural)\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wholeTree := false
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			wholeTree = true
		}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spritelint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "spritelint: no packages matched")
		os.Exit(2)
	}

	// One suppressor across every package: tree-analyzer diagnostics land
	// in whichever file the violating function lives, and the -deadallow
	// audit needs the global view of which allows fired.
	supp := lint.NewSuppressor(pkgs[0].Fset, nil)
	for _, pkg := range pkgs {
		supp.Add(pkg.Fset, pkg.Files)
	}

	var all []lint.Diagnostic
	var sites []failpointreg.SiteRef
	for _, pkg := range pkgs {
		if *debug {
			fmt.Fprintf(os.Stderr, "spritelint: %s: %d files, %d type errors\n",
				pkg.ImportPath, len(pkg.Files), len(pkg.TypeErrors))
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "spritelint:   type error: %v\n", e)
			}
		}
		for _, a := range analyzers {
			diags, res, err := lint.Run(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spritelint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
			all = append(all, supp.Filter(diags)...)
			if refs, ok := res.([]failpointreg.SiteRef); ok {
				sites = append(sites, refs...)
			}
		}
	}

	// Interprocedural pass: one shared Tree, every tree analyzer over it;
	// whole-tree-only analyzers sit out partial runs.
	var cache *dataflow.Cache
	if *useCache {
		cache = &dataflow.Cache{Dir: *cacheDir}
	}
	tree := dataflow.Analyze(pkgs, dataflow.Options{Cache: cache})
	if *graph {
		fmt.Print(tree.Graph.Dump())
		return
	}
	for _, a := range treeAnalyzers {
		if a.WholeTree && !wholeTree {
			continue
		}
		diags, err := a.Run(tree)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spritelint: %s: %v\n", a.Name, err)
			os.Exit(2)
		}
		all = append(all, supp.Filter(diags)...)
	}

	if *audit {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].Name != sites[j].Name {
				return sites[i].Name < sites[j].Name
			}
			return sites[i].Pos.String() < sites[j].Pos.String()
		})
		for _, s := range sites {
			status := "registered"
			if !s.Registered {
				status = "UNREGISTERED"
			}
			fmt.Printf("%-20s %-13s %s\n", s.Name, status, s.Pos)
		}
		return
	}

	exit := 0
	if len(all) > 0 {
		exit = 1
	}
	if *deadcheck && wholeTree {
		for _, name := range failpointreg.DeadEntries(sites) {
			all = append(all, lint.Diagnostic{
				Analyzer: "failpointreg",
				Message:  fmt.Sprintf("internal/fault/failpoints.go: registered failpoint %q has no remaining call site; delete the entry or restore the site", name),
			})
			exit = 1
		}
	}
	var stale []lint.StaleAllow
	if *deadallow {
		stale = supp.Stale()
		if len(stale) > 0 {
			exit = 1
		}
	}

	if *jsonOut {
		rep := jsonReport{
			Packages:    len(pkgs),
			Analyzers:   len(analyzers) + len(treeAnalyzers),
			Diagnostics: all,
			StaleAllows: stale,
			CacheHits:   tree.CacheHits,
			CacheMisses: tree.CacheMisses,
		}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "spritelint: %v\n", err)
			os.Exit(2)
		}
		os.Exit(exit)
	}

	for _, d := range all {
		fmt.Println(d)
	}
	for _, s := range stale {
		fmt.Printf("%s: stale //spritelint:allow %s — it suppressed nothing this run; delete it (deadallow)\n", s.Pos, s.Name)
	}
	if exit == 0 {
		fmt.Printf("spritelint: %d packages clean under %d analyzers (summary cache: %d hits, %d misses)\n",
			len(pkgs), len(analyzers)+len(treeAnalyzers), tree.CacheHits, tree.CacheMisses)
	}
	os.Exit(exit)
}
