package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tipsy/internal/lint"
)

// module is the whole repository, loaded and type-checked once for
// every test that lints it: ./... from the module root.
var module = sync.OnceValues(func() ([]*lint.Package, error) {
	return lint.Load("../..", "./...")
})

// runModule is run("./...") on the shared load.
func runModule(t *testing.T, stdout, stderr io.Writer) int {
	t.Helper()
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	return report(pkgs, stdout, stderr)
}

// TestRepoIsLintClean lints the entire repository with the CLI's own
// load and report steps — the invocation scripts/check.sh
// gates on — and requires a clean exit. If this fails, a change
// somewhere in the tree violated a project convention; run `go run
// ./cmd/tipsylint ./...` for the findings.
func TestRepoIsLintClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := runModule(t, &out, &errOut); code != 0 {
		t.Fatalf("tipsylint exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestFindingsExitOne pins the findings path: a fixture full of
// violations must report them and exit 1 — not 0 (missed) and not 2
// (which is reserved for infrastructure failures).
func TestFindingsExitOne(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/lint/testdata/locks/bad/..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[locks]") {
		t.Errorf("findings missing from stdout:\n%s", out.String())
	}
}

// inModule makes a fresh module holding files the working directory
// for the rest of the test, since patterns are read from there.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module broken\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoadErrorsExitTwo pins the load-failure paths at exit 2: a
// package that cannot be parsed and one that cannot be type-checked
// are infrastructure failures, distinct from findings (exit 1), and so
// are patterns the go command matches to nothing or refuses.
func TestLoadErrorsExitTwo(t *testing.T) {
	t.Run("parse error", func(t *testing.T) {
		inModule(t, map[string]string{"brokenpkg/b.go": "package broken\nfunc f( {}\n"})
		var out, errOut strings.Builder
		if code := run([]string{"./..."}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
	})
	t.Run("type error", func(t *testing.T) {
		inModule(t, map[string]string{"brokenpkg/b.go": "package broken\nfunc f() int { return \"nope\" }\n"})
		var out, errOut strings.Builder
		if code := run([]string{"./..."}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "typecheck") {
			t.Errorf("stderr does not mention the typecheck failure: %s", errOut.String())
		}
	})
	t.Run("no packages", func(t *testing.T) {
		inModule(t, map[string]string{})
		var out, errOut strings.Builder
		if code := run([]string{"./..."}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
	})
	t.Run("outside module", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if code := run([]string{dir}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "outside main module") {
			t.Errorf("stderr does not carry the go command's message: %s", errOut.String())
		}
	})
}

// TestUsageErrors pins the exit-2 paths: no packages, and any flag,
// since tipsylint takes none.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-stats", "./..."}, {"./...", "-rules"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "usage: tipsylint packages...") {
			t.Errorf("%q: stderr carries no usage line: %s", args, errOut.String())
		}
	}
}
