package dataflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/load"
)

// cacheVersion invalidates every cached summary when the engine's output
// format or semantics change. Bump it whenever Summary fields, the models
// table, or the extraction rules move.
const cacheVersion = "spritelint-dataflow-v3"

// Cache persists per-package summaries between whole-tree runs. The key
// is a recursive content digest — the package's own source bytes plus the
// digests of every loaded dependency — so any change anywhere below a
// package recomputes it, and cache hits are always semantically valid.
type Cache struct {
	Dir string

	digests map[string]string // import path -> digest, memoized per run
}

// DefaultCacheDir is where the driver caches summaries unless told
// otherwise.
func DefaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "spritelint")
	}
	return filepath.Join(os.TempDir(), "spritelint-cache")
}

func (c *Cache) digest(pkg *load.Package, byPath map[string]*load.Package) string {
	if c.digests == nil {
		c.digests = make(map[string]string)
	}
	if d, ok := c.digests[pkg.ImportPath]; ok {
		return d
	}
	c.digests[pkg.ImportPath] = "" // cycle guard; import cycles can't happen, but be safe
	h := sha256.New()
	h.Write([]byte(cacheVersion + "\x00" + pkg.ImportPath + "\x00"))
	var files []string
	for _, f := range pkg.Files {
		files = append(files, pkg.Fset.Position(f.Pos()).Filename)
	}
	sort.Strings(files)
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			b = []byte("unreadable:" + err.Error())
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	var deps []string
	if pkg.Types != nil {
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				deps = append(deps, imp.Path()+"="+c.digest(dep, byPath))
			}
		}
	}
	sort.Strings(deps)
	for _, d := range deps {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	d := hex.EncodeToString(h.Sum(nil))
	c.digests[pkg.ImportPath] = d
	return d
}

func (c *Cache) path(pkg *load.Package, all []*load.Package) string {
	byPath := make(map[string]*load.Package, len(all))
	for _, p := range all {
		byPath[p.ImportPath] = p
	}
	d := c.digest(pkg, byPath)
	name := strings.ReplaceAll(pkg.ImportPath, "/", "_") + "-" + d[:16] + ".json"
	return filepath.Join(c.Dir, name)
}

// Load returns the cached summaries for pkg if its digest matches.
func (c *Cache) Load(pkg *load.Package, all []*load.Package) (map[callgraph.FuncID]*Summary, bool) {
	if c == nil || c.Dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(pkg, all))
	if err != nil {
		return nil, false
	}
	var raw map[string]*Summary
	if json.Unmarshal(b, &raw) != nil {
		return nil, false
	}
	out := make(map[callgraph.FuncID]*Summary, len(raw))
	for k, v := range raw {
		out[callgraph.FuncID(k)] = v
	}
	return out, true
}

// Store writes pkg's summaries under its current digest. Failures are
// silent: the cache is an accelerator, not a dependency.
func (c *Cache) Store(pkg *load.Package, all []*load.Package, sums map[callgraph.FuncID]*Summary) {
	if c == nil || c.Dir == "" {
		return
	}
	if os.MkdirAll(c.Dir, 0o755) != nil {
		return
	}
	raw := make(map[string]*Summary, len(sums))
	for k, v := range sums {
		raw[string(k)] = v
	}
	b, err := json.Marshal(raw)
	if err != nil {
		return
	}
	tmp := c.path(pkg, all) + ".tmp"
	if os.WriteFile(tmp, b, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, c.path(pkg, all))
}
