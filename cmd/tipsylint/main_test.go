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
// every test that lints it.
var module = sync.OnceValues(func() ([]*lint.Package, error) {
	return load([]string{"./..."})
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
	code := run([]string{"internal/lint/testdata/locks/bad/..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[locks]") {
		t.Errorf("findings missing from stdout:\n%s", out.String())
	}
}

// TestLoadErrorsExitTwo pins the load-failure paths at exit 2: a
// package that cannot be parsed and one that cannot be type-checked
// are infrastructure failures, distinct from findings (exit 1).
func TestLoadErrorsExitTwo(t *testing.T) {
	writePkg := func(t *testing.T, src string) string {
		dir := filepath.Join(t.TempDir(), "brokenpkg")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("parse error", func(t *testing.T) {
		dir := writePkg(t, "package broken\nfunc f( {}\n")
		var out, errOut strings.Builder
		if code := run([]string{dir}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
	})
	t.Run("type error", func(t *testing.T) {
		dir := writePkg(t, "package broken\nfunc f() int { return \"nope\" }\n")
		var out, errOut strings.Builder
		if code := run([]string{dir}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "typecheck") {
			t.Errorf("stderr does not mention the typecheck failure: %s", errOut.String())
		}
	})
	t.Run("no packages", func(t *testing.T) {
		var out, errOut strings.Builder
		if code := run([]string{filepath.Join(t.TempDir(), "absent")}, &out, &errOut); code != 2 {
			t.Errorf("exit %d, want 2\n%s", code, errOut.String())
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
