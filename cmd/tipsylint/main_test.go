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

// runModule is run(flags..., "./...") on the shared load.
func runModule(t *testing.T, stdout, stderr io.Writer, flags ...string) int {
	t.Helper()
	opts, ok := parseArgs(append(flags, "./..."), stderr)
	if !ok {
		return 2
	}
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	return report(opts, pkgs, stdout, stderr)
}

// TestRepoIsLintClean lints the entire repository with the CLI's own
// argument parsing and report step — the invocation scripts/check.sh
// gates on — and requires a clean exit. If this fails, a change
// somewhere in the tree violated a project convention; run `go run
// ./cmd/tipsylint ./...` for the findings.
func TestRepoIsLintClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := runModule(t, &out, &errOut); code != 0 {
		t.Fatalf("tipsylint exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestRepoHasZeroSuppressions pins the suppression budget at zero:
// every convention violation the analyzers find must be fixed in the
// source, never silenced. If a directive ever becomes unavoidable,
// this count is the place where adding it is a reviewed decision.
func TestRepoHasZeroSuppressions(t *testing.T) {
	var out, errOut strings.Builder
	if code := runModule(t, &out, &errOut, "-suppressions"); code != 0 {
		t.Fatalf("tipsylint -suppressions exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "" {
		t.Errorf("repository carries //lint:ignore directives (want zero):\n%s", got)
	}
}

// TestFindingsExitOne pins the findings path: a fixture full of
// violations must report them and exit 1 — not 0 (missed) and not 2
// (which is reserved for infrastructure failures).
func TestFindingsExitOne(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-rules", "locks", "internal/lint/testdata/locks/bad/..."}, &out, &errOut)
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

// TestUsageErrors pins the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no packages: exit %d, want 2", code)
	}
	if code := run([]string{"-rules", "nosuch", "./..."}, &out, &errOut); code != 2 {
		t.Errorf("unknown rule: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nosuch") {
		t.Errorf("stderr does not name the unknown rule: %s", errOut.String())
	}
}
