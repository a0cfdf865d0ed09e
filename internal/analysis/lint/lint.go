// Package lint is the spritelint analyzer framework: a deliberately small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface this repo needs. The container building this repo has no module
// proxy, so the real x/tools framework is unavailable; the subset here —
// an Analyzer with a Run func over a type-checked package, positional
// diagnostics, and a comment-driven suppression mechanism — is
// API-compatible enough that migrating to the upstream framework later is a
// mechanical change.
//
// The project contracts the analyzers enforce are documented in DESIGN.md
// §11 ("Static contracts").
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked package
// and reports violations through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//spritelint:allow <name>" suppression comments.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run performs the check. It may return an analyzer-specific result
	// (e.g. failpointreg returns the set of registered names it saw) that
	// the driver aggregates across packages.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, including in-package _test.go files
	// when the driver loaded the test variant.
	Files []*ast.File
	// Pkg is the type-checked package (path() is the import path the
	// analyzers match against, e.g. "sprite/internal/core").
	Pkg *types.Package
	// TypesInfo resolves identifiers, selections, and expression types.
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename returns the base name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

// Run applies one analyzer to one package and returns its diagnostics
// (suppressions not yet applied — see Suppressor) plus the analyzer's
// aggregate result.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, any, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		diags:     &diags,
	}
	res, err := a.Run(pass)
	return diags, res, err
}

// AllowPrefix introduces a suppression comment. A comment of the form
//
//	//spritelint:allow walltime[,maporder] [rationale...]
//
// suppresses the named analyzers' diagnostics on the statement it is
// attached to: the statement (or declaration) starting on the comment's
// own line for end-of-line placement, or on the line immediately below it
// for standalone placement — covering every line of that statement, so a
// call wrapped across lines stays suppressed. Compound statements
// (if/for/switch/select) and function declarations are covered only
// through their headers; an allow above an `if` does not silence its
// whole body. Suppressions are deliberate, visible, and greppable — the
// policy in DESIGN.md §11 requires a rationale after the analyzer list.
const AllowPrefix = "//spritelint:allow"

// allowEntry is one (comment, analyzer-name) suppression, tracked for the
// -deadallow audit: an entry that never suppresses anything is stale.
type allowEntry struct {
	Pos  token.Position // the allow comment itself
	Name string
	used bool
}

// StaleAllow identifies an allow comment entry that suppressed nothing.
type StaleAllow struct {
	Pos  token.Position
	Name string
}

// Suppressor decides whether a diagnostic is silenced by an allow comment.
type Suppressor struct {
	// file -> line -> analyzer name -> entry covering that line.
	allowed map[string]map[int]map[string]*allowEntry
	entries []*allowEntry
	byKey   map[string]*allowEntry // "file:commentLine:name", dedupes re-added files
}

// NewSuppressor scans the files' comments for allow directives.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{
		allowed: make(map[string]map[int]map[string]*allowEntry),
		byKey:   make(map[string]*allowEntry),
	}
	s.Add(fset, files)
	return s
}

// Add scans more files into the suppressor. The driver aggregates every
// loaded package into one suppressor so tree-analyzer diagnostics and the
// -deadallow audit see all files; re-adding a file (test variants share
// sources) is idempotent.
func (s *Suppressor) Add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		ext := stmtExtents(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowPrefix)
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					entry := s.entry(pos, name)
					// The comment's own line (end-of-line placement) and
					// the next line (standalone placement), each extended
					// to the end of the statement starting there.
					s.cover(pos.Filename, pos.Line, max(pos.Line, ext[pos.Line]), entry)
					s.cover(pos.Filename, pos.Line+1, max(pos.Line+1, ext[pos.Line+1]), entry)
				}
			}
		}
	}
}

func (s *Suppressor) entry(pos token.Position, name string) *allowEntry {
	key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, name)
	if e, ok := s.byKey[key]; ok {
		return e
	}
	e := &allowEntry{Pos: pos, Name: name}
	s.byKey[key] = e
	s.entries = append(s.entries, e)
	return e
}

func (s *Suppressor) cover(file string, from, to int, e *allowEntry) {
	byLine := s.allowed[file]
	if byLine == nil {
		byLine = make(map[int]map[string]*allowEntry)
		s.allowed[file] = byLine
	}
	for line := from; line <= to; line++ {
		if byLine[line] == nil {
			byLine[line] = make(map[string]*allowEntry)
		}
		if byLine[line][e.Name] == nil {
			byLine[line][e.Name] = e
		}
	}
}

// stmtExtents maps each line on which a statement or declaration starts
// to the last line it spans, so an allow above a wrapped statement covers
// all of it. Compound statements and function declarations stop at their
// body's opening brace: their nested statements get their own extents.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	ext := make(map[int]int)
	record := func(n ast.Node, end token.Pos) {
		start := fset.Position(n.Pos()).Line
		stop := fset.Position(end).Line
		if stop > ext[start] {
			ext[start] = stop
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			record(n, n.Body.Lbrace)
		case *ast.ForStmt:
			record(n, n.Body.Lbrace)
		case *ast.RangeStmt:
			record(n, n.Body.Lbrace)
		case *ast.SwitchStmt:
			record(n, n.Body.Lbrace)
		case *ast.TypeSwitchStmt:
			record(n, n.Body.Lbrace)
		case *ast.SelectStmt:
			record(n, n.Body.Lbrace)
		case *ast.FuncDecl:
			if n.Body != nil {
				record(n, n.Body.Lbrace)
			} else {
				record(n, n.End())
			}
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
			// Containers: their children record themselves.
		case ast.Stmt:
			record(n, n.End())
		case *ast.GenDecl:
			record(n, n.End())
		case *ast.ValueSpec, *ast.TypeSpec, *ast.ImportSpec:
			record(n, n.End())
		}
		return true
	})
	return ext
}

// Suppressed reports whether d is silenced by an allow comment, marking
// the matching entry as used for the -deadallow audit.
func (s *Suppressor) Suppressed(d Diagnostic) bool {
	byLine := s.allowed[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := byLine[d.Pos.Line]
	if names == nil {
		return false
	}
	hit := false
	if e := names[d.Analyzer]; e != nil {
		e.used = true
		hit = true
	}
	if e := names["all"]; e != nil {
		e.used = true
		hit = true
	}
	return hit
}

// Stale returns the allow entries that suppressed nothing across every
// Suppressed/Filter call so far, in position order. Meaningful only after
// all analyzers have been filtered through this suppressor.
func (s *Suppressor) Stale() []StaleAllow {
	var out []StaleAllow
	for _, e := range s.entries {
		if !e.used {
			out = append(out, StaleAllow{Pos: e.Pos, Name: e.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Filter drops suppressed diagnostics and sorts the rest by position.
func (s *Suppressor) Filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !s.Suppressed(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// FuncObjOf resolves a call expression's callee to its *types.Func (methods
// and package-level functions; nil for builtins, conversions, and func
// values).
func FuncObjOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether obj is the package-level function (or method —
// recvName "" matches only package-level) path.name.
func IsPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// IsMethod reports whether fn is a method named name whose receiver's named
// type (after pointer indirection) is path.typeName.
func IsMethod(fn *types.Func, path, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == typeName
}

// ConstString returns the compile-time string value of e, if it has one.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
