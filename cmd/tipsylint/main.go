// Command tipsylint is the repository's static-analysis gate. It
// walks the given packages and enforces the project conventions that
// go vet cannot: seeded-simulation determinism, wire-encoder error
// handling, goroutine lifecycle discipline, and registry-backed
// metrics and structured-logging hygiene.
//
// Usage:
//
//	tipsylint packages...
//
// Patterns mean what they mean to go vet run in the same directory:
// the go command lists the packages and compiles their dependencies,
// which tipsylint reads as export data, and tipsylint type-checks the
// matched packages from source with their tests.
//
// It takes no flags and runs every rule. Exit status is 0 when clean,
// 1 when findings were reported, and 2 on usage, load, or typecheck
// errors. A finding is fixed in the source: there is no suppression
// comment.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tipsy/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: check the arguments, load the packages, report.
func run(args []string, stdout, stderr io.Writer) int {
	isFlag := func(arg string) bool { return strings.HasPrefix(arg, "-") }
	if len(args) == 0 || slices.ContainsFunc(args, isFlag) {
		fmt.Fprintln(stderr, "usage: tipsylint packages...")
		fmt.Fprintln(stderr, "\nrules:")
		for _, r := range lint.Rules() {
			fmt.Fprintf(stderr, "  %-12s %s\n", r.Name, r.Doc)
		}
		return 2
	}
	pkgs, err := lint.Load(".", args...)
	if err != nil {
		fmt.Fprintln(stderr, "tipsylint:", err)
		return 2
	}
	return report(pkgs, stdout, stderr)
}

// report lints pkgs with every rule, writes the findings and returns
// the exit status. It does not write to pkgs, so one loaded set can
// be reported on any number of times.
func report(pkgs []*lint.Package, stdout, stderr io.Writer) int {
	// Typecheck failures are load errors, not findings: the analyzers
	// run on what did check, but the exit status must say the tree
	// could not be fully analyzed.
	badLoad := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrs {
			fmt.Fprintf(stderr, "tipsylint: typecheck: %v\n", terr)
			badLoad = true
		}
	}
	diags := lint.Run(pkgs, lint.Rules())
	lint.WriteText(stdout, diags)
	if badLoad {
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
