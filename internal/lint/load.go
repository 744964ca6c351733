package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
// In-package test files are checked together with the package proper;
// an external foo_test package becomes a second Package for the same
// directory.
type Package struct {
	Name     string // package clause name, e.g. "netsim"
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

// listed is the part of a package's `go list -json` record that Load
// reads.
type listed struct {
	Dir, ImportPath, Export            string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
	Module                             *struct{ Path string }
	Error                              *struct{ Err string }
}

// goList runs `go list -e -json` with args in dir. A package the go
// command could not list or build is an error.
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, errors.New(strings.TrimSpace(p.Error.Err))
		}
		pkgs = append(pkgs, p)
	}
}

// Load type-checks the packages that patterns name, as `go vet` run in
// dir would read them: the go command decides what a pattern matches,
// which files build, and where the module root is. Each matched
// package is parsed and checked from source with its tests; its
// dependencies are read from the export data a second go list
// compiles, so nothing outside the matched set is checked from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	matched, err := goList(dir, append([]string{
		"-json=Dir,ImportPath,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Module,Error",
	}, patterns...)...)
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return nil, errors.New("no packages matched")
	}
	var imports []string
	for _, p := range matched {
		imports = slices.Concat(imports, p.Imports, p.TestImports, p.XTestImports)
	}
	slices.Sort(imports)
	exports := map[string]string{}
	if imports = slices.Compact(imports); len(imports) > 0 {
		deps, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Export,Error"}, imports...)...)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			exports[d.ImportPath] = d.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("go list compiled no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	var out []*Package
	for _, p := range matched {
		rel := "."
		if p.Module != nil && p.ImportPath != p.Module.Path {
			rel = strings.TrimPrefix(p.ImportPath, p.Module.Path+"/")
		}
		for _, names := range [][]string{slices.Concat(p.GoFiles, p.TestGoFiles), p.XTestGoFiles} {
			if len(names) == 0 {
				continue
			}
			files := make([]*ast.File, len(names))
			for i, name := range names {
				if files[i], err = parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments); err != nil {
					return nil, err
				}
			}
			out = append(out, check(fset, imp, files, p.ImportPath, rel))
		}
	}
	return out, nil
}

// stdFset and stdImporter serve every LoadSource call: the importer
// reads the standard library's export data, which the go command
// builds on first use, and keeps what it has read.
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "gc", nil)
)

// LoadSource type-checks a single in-memory file as its own package,
// importing only the standard library — the entry point the analyzer
// tests use for inline fixtures. It is not safe for concurrent use.
func LoadSource(filename, src string) (*Package, error) {
	f, err := parser.ParseFile(stdFset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return check(stdFset, stdImporter, []*ast.File{f}, f.Name.Name, "."), nil
}

// check type-checks files as the package at import path path and
// module-relative path rel. The call graph is keyed on Pkg().Path(),
// so a package and its in-package tests share the import path; an
// external test package imports the package under test and cannot, so
// it gets path + "_test".
func check(fset *token.FileSet, imp types.Importer, files []*ast.File, path, rel string) *Package {
	p := &Package{
		Name: files[0].Name.Name,
		Rel:  rel,
		Fset: fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	if strings.HasSuffix(p.Name, "_test") {
		path += "_test"
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	// The returned package is usable even when checking reported
	// errors; rules degrade gracefully on missing type info.
	p.Types, _ = conf.Check(path, fset, files, p.Info)
	p.Files = files
	return p
}
