package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
// In-package test files are checked together with the package proper;
// an external foo_test package becomes a second Package for the same
// directory.
type Package struct {
	Name     string // package clause name, e.g. "netsim"
	Dir      string // directory holding the sources
	Rel      string // module-relative slash path, e.g. "internal/netsim"
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
	TypeErrs []error // non-fatal type-checker complaints
}

// IsTestFile reports whether the file containing pos is a _test.go
// file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Loader parses and type-checks packages inside one module without
// shelling out to the go tool: module-internal import paths are
// mapped straight onto directories, and the standard library is
// type-checked from GOROOT source. A Loader is not safe for
// concurrent use.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod, e.g. "tipsy"

	std   types.Importer
	cache map[string]*types.Package
	busy  map[string]bool
	// stdCache memoizes GOROOT type-checks in front of the source
	// importer, so a standard-library package costs one check per
	// loader no matter how many module packages import it.
	stdCache map[string]*types.Package

	// parsed caches each file's AST by path so a file read both as a
	// dependency (test-free Import) and for analysis (LoadDir with
	// tests) is parsed exactly once.
	parsed    map[string]*ast.File
	parseErrs map[string]error
}

// NewLoader locates the enclosing module of dir and returns a loader
// for it.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*types.Package{},
		busy:       map[string]bool{},
		stdCache:   map[string]*types.Package{},
		parsed:     map[string]*ast.File{},
		parseErrs:  map[string]error{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Import implements types.Importer. Module-internal paths resolve to
// directories under ModuleRoot; everything else defers to the GOROOT
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	rel, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		if path == l.ModulePath {
			rel = "."
		} else {
			if pkg, ok := l.stdCache[path]; ok {
				return pkg, nil
			}
			pkg, err := l.std.Import(path)
			if err == nil {
				l.stdCache[path] = pkg
			}
			return pkg, err
		}
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	files, _, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// goFilePaths lists the Go source files of dir that the default build
// context compiles, in directory order (stable: os.ReadDir sorts by
// name).
func goFilePaths(dir string, withTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// One file of a build-tagged pair, as the default build sees
		// the package (no race tag); both would not type-check.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	return paths, nil
}

// parseFile parses path once per loader, returning the cached AST on
// every later request.
func (l *Loader) parseFile(path string) (*ast.File, error) {
	if f, ok := l.parsed[path]; ok {
		return f, l.parseErrs[path]
	}
	f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
	l.parsed[path], l.parseErrs[path] = f, err
	return f, err
}

// parseDir parses the Go files of dir, split into the primary
// package's files (plus in-package tests when withTests is set) and
// the files of an external _test package.
func (l *Loader) parseDir(dir string, withTests bool) (main, xtest []*ast.File, err error) {
	paths, err := goFilePaths(dir, withTests)
	if err != nil {
		return nil, nil, err
	}
	for _, path := range paths {
		f, err := l.parseFile(path)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			main = append(main, f)
		}
	}
	return main, xtest, nil
}

// LoadDir parses and type-checks the package in dir (tests included)
// and returns one Package per package clause found there.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	main, xtest, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	var out []*Package
	for _, files := range [][]*ast.File{main, xtest} {
		if len(files) == 0 {
			continue
		}
		out = append(out, l.check(files, dir, rel))
	}
	return out, nil
}

// LoadDirs loads every directory in the given order, so the returned
// packages (and therefore all diagnostics) are deterministic. Each
// file is parsed once into the loader's cache, which the dependency
// walk during type-checking then hits instead of re-parsing.
func (l *Loader) LoadDirs(dirs []string) ([]*Package, error) {
	var out []*Package
	for _, dir := range dirs {
		ps, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		out = append(out, ps...)
	}
	return out, nil
}

// LoadSource type-checks a single in-memory file as its own package —
// the entry point the analyzer tests use for inline fixtures.
func (l *Loader) LoadSource(filename, src string) (*Package, error) {
	f, err := parser.ParseFile(l.Fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check([]*ast.File{f}, ".", "."), nil
}

func (l *Loader) check(files []*ast.File, dir, rel string) *Package {
	p := &Package{
		Name: files[0].Name.Name,
		Dir:  dir,
		Rel:  rel,
		Fset: l.Fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	// Check under the full import path so objects here and objects
	// reached through the import cache agree on Pkg().Path() — the
	// call graph is keyed on that identity.
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + rel
	}
	if strings.HasSuffix(p.Name, "_test") {
		// External test packages import the package under test, so
		// they cannot share its path.
		path += "_test"
	}
	// The returned package is usable even when checking reported
	// errors; rules degrade gracefully on missing type info.
	p.Types, _ = conf.Check(path, l.Fset, files, p.Info)
	p.Files = files
	return p
}

// ExpandPatterns resolves command-line package patterns (a directory,
// or a "dir/..." wildcard) into the list of directories containing Go
// files. testdata, vendor, and hidden directories are skipped.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base, recursive = rest, true
			if base == "" || base == "." {
				base = root
			}
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
