// Package load turns package patterns into parsed, type-checked packages for
// the antlint analyzers, using nothing outside the standard library and the
// go command already present in the build image.
//
// Two kinds of packages are loadable:
//
//   - module packages ("./...", "antsearch/internal/sim"): resolved with
//     `go list` run at the module root, parsed from source;
//   - fixture packages: resolved against GOPATH-style source roots
//     (testdata/src/<importpath>), the layout the analysistest harness uses.
//
// Imports of an analyzed package are satisfied from compiler export data —
// `go list -export` reports the build cache's export file for every
// dependency, and importer.ForCompiler's lookup hook reads them — so loading
// is exact (the same types the compiler saw) without type-checking the
// transitive closure from source. Fixture-local imports fall back to
// recursive source loading.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory its files were read from.
	Dir string
	// Fset maps the files' positions.
	Fset *token.FileSet
	// Files holds the parsed files, comments included. Test files are
	// included only when the loader's IncludeTests is set.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's facts for Files.
	Info *types.Info
}

// Loader loads packages. The zero value is not usable; construct with New.
// A Loader is not safe for concurrent use.
type Loader struct {
	// ModuleDir is the directory `go list` runs in; resolving module
	// patterns like ./... requires it.
	ModuleDir string
	// SrcRoots are GOPATH-style source roots consulted before `go list`:
	// import path p resolves to <root>/p if that directory exists.
	SrcRoots []string
	// IncludeTests adds in-package _test.go files to loaded packages.
	// External (_test-suffixed) test packages are never loaded.
	IncludeTests bool

	fset     *token.FileSet
	exports  map[string]string         // import path -> export data file
	imported map[string]*types.Package // fixture packages checked from source
	imp      types.ImporterFrom
}

// New returns a loader. moduleDir may be empty if only SrcRoots packages
// will be loaded and they import nothing but other SrcRoots packages.
func New(moduleDir string, srcRoots ...string) *Loader {
	l := &Loader{
		ModuleDir: moduleDir,
		SrcRoots:  srcRoots,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
		imported:  make(map[string]*types.Package),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	Incomplete bool
}

// goList runs `go list -export -deps -json` on the given patterns in the
// module directory and records every reported export file.
func (l *Loader) goList(patterns ...string) ([]listEntry, error) {
	if l.ModuleDir == "" {
		return nil, fmt.Errorf("load: module patterns need a module directory")
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if e.Incomplete {
			return nil, fmt.Errorf("load: package %s does not build; run `go build ./...` first", e.ImportPath)
		}
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// lookupExport is the gc importer's lookup hook: it returns export data for
// the path, asking `go list -export` on demand for paths (typically stdlib
// packages imported only by fixtures) the initial batch did not cover.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		if _, err := l.goList(path); err != nil {
			return nil, err
		}
		file, ok = l.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// Import implements types.Importer for the type-checker: fixture packages
// load from source, everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. A package this loader has
// already type-checked from source is always preferred over its export data:
// `go list -deps` reports dependencies before dependents, so within one Load
// call every module package sees its module imports as the same
// *types.Package (and the same types.Objects) the analyzers see — the
// object identity the fact store keys on. Export data remains the path for
// everything else (the stdlib, chiefly).
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if dir := l.srcDir(path); dir != "" {
		p, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.imp.ImportFrom(path, dir, mode)
}

// srcDir resolves an import path against the source roots, or returns "".
func (l *Loader) srcDir(path string) string {
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// Load loads every package matched by the patterns. A pattern resolving
// under a source root loads that fixture package; anything else goes through
// `go list` at the module root (so ./... and module import paths both work).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var pkgs []*Package
	var modPatterns []string
	for _, pat := range patterns {
		if dir := l.srcDir(pat); dir != "" {
			p, err := l.loadDir(pat, dir)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
			continue
		}
		modPatterns = append(modPatterns, pat)
	}
	if len(modPatterns) > 0 {
		entries, err := l.goList(modPatterns...)
		if err != nil {
			return nil, err
		}
		// -deps lists the whole closure (that is what harvests the export
		// files); analyze only the module's own packages.
		for _, e := range entries {
			if e.Standard || e.Dir == "" || len(e.GoFiles) == 0 {
				continue
			}
			if !l.underModule(e.Dir) {
				continue
			}
			p, err := l.loadFiles(e.ImportPath, e.Dir, e.GoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// SortDeps orders pkgs so every package appears after the packages it
// imports (directly or transitively) that are themselves in the slice — the
// order a fact-propagating driver must analyze them in. Ties are broken by
// import path, so the order is deterministic.
func SortDeps(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	var out []*Package
	visited := make(map[*types.Package]bool)
	var visit func(t *types.Package)
	visit = func(t *types.Package) {
		if visited[t] {
			return
		}
		visited[t] = true
		imps := append([]*types.Package{}, t.Imports()...)
		sort.Slice(imps, func(i, j int) bool { return imps[i].Path() < imps[j].Path() })
		for _, imp := range imps {
			visit(imp)
		}
		if p, ok := byTypes[t]; ok {
			out = append(out, p)
		}
	}
	roots := append([]*Package{}, pkgs...)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	for _, p := range roots {
		visit(p.Types)
	}
	return out
}

// underModule reports whether dir sits inside the loader's module directory.
func (l *Loader) underModule(dir string) bool {
	if l.ModuleDir == "" {
		return false
	}
	root, err1 := filepath.Abs(l.ModuleDir)
	d, err2 := filepath.Abs(dir)
	if err1 != nil || err2 != nil {
		return false
	}
	return d == root || strings.HasPrefix(d, root+string(filepath.Separator))
}

// loadDir loads a package from a directory, applying build constraints via
// go/build and honoring IncludeTests.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %v", path, err)
	}
	files := bp.GoFiles
	if l.IncludeTests {
		files = append(append([]string{}, files...), bp.TestGoFiles...)
	}
	return l.loadFiles(path, dir, files)
}

// loadFiles parses and type-checks the named files as one package.
func (l *Loader) loadFiles(path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.imported[path] = tpkg
	return p, nil
}
