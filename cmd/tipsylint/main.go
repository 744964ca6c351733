// Command tipsylint is the repository's static-analysis gate. It
// walks the given packages and enforces the project conventions that
// go vet cannot: seeded-simulation determinism, mutex hygiene,
// wire-encoder error handling, goroutine lifecycle discipline, and
// registry-backed metrics hygiene.
//
// Usage:
//
//	tipsylint [-suppressions] [-stats] [-rules determinism,locks,...] ./...
//
// Exit status is 0 when clean, 1 when findings were reported, and 2
// on usage, load, or typecheck errors. Individual findings are
// silenced in the source with a justified directive on or above the
// offending line:
//
//	//lint:ignore <rule> <reason>
//
// -suppressions inventories those directives instead of linting and
// exits non-zero if any directive lacks a reason.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tipsy/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one parsed command line.
type options struct {
	suppressions bool
	stats        bool
	rules        []lint.Rule
	patterns     []string
}

// run is the command: parse the arguments, load the packages, report.
func run(args []string, stdout, stderr io.Writer) int {
	opts, ok := parseArgs(args, stderr)
	if !ok {
		return 2
	}
	pkgs, err := load(opts.patterns)
	if err != nil {
		fmt.Fprintln(stderr, "tipsylint:", err)
		return 2
	}
	return report(opts, pkgs, stdout, stderr)
}

// parseArgs reads the flags and package patterns; on a usage error it
// has already written the message and reports false.
func parseArgs(args []string, stderr io.Writer) (options, bool) {
	var opts options
	fs := flag.NewFlagSet("tipsylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&opts.suppressions, "suppressions", false,
		"list //lint:ignore directives instead of linting; exit 1 on any reasonless directive")
	ruleList := fs.String("rules", "", "comma-separated rule subset (default: all)")
	fs.BoolVar(&opts.stats, "stats", false,
		"print per-rule wall time to stderr after the run")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tipsylint [-suppressions] [-stats] [-rules list] packages...")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nrules:")
		for _, r := range lint.Rules() {
			fmt.Fprintf(stderr, "  %-12s %s\n", r.Name, r.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return opts, false
	}
	opts.patterns = fs.Args()
	if len(opts.patterns) == 0 {
		fs.Usage()
		return opts, false
	}
	opts.rules = lint.Rules()
	if *ruleList != "" {
		byName := map[string]lint.Rule{}
		for _, r := range opts.rules {
			byName[r.Name] = r
		}
		opts.rules = opts.rules[:0]
		for _, name := range strings.Split(*ruleList, ",") {
			r, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "tipsylint: unknown rule %q\n", name)
				return opts, false
			}
			opts.rules = append(opts.rules, r)
		}
	}
	return opts, true
}

// load parses and type-checks the packages the patterns name, inside
// the module that holds the working directory.
func load(patterns []string) ([]*lint.Package, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		return nil, err
	}
	dirs, err := lint.ExpandPatterns(loader.ModuleRoot, patterns)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadDirs(dirs, 0)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, errors.New("no packages matched")
	}
	return pkgs, nil
}

// report lints pkgs, or inventories their suppressions, writes the
// result and returns the exit status. It does not write to pkgs, so
// one loaded set can be reported on any number of times.
func report(opts options, pkgs []*lint.Package, stdout, stderr io.Writer) int {
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

	if opts.suppressions {
		if bad := lint.WriteSuppressions(stdout, lint.CollectSuppressions(pkgs)); bad {
			return 1
		}
		if badLoad {
			return 2
		}
		return 0
	}

	diags, ruleStats := lint.RunStats(pkgs, opts.rules)
	if opts.stats {
		// Stats go to stderr so stdout holds findings only.
		fmt.Fprintln(stderr, "rule timings:")
		for _, s := range ruleStats {
			fmt.Fprintf(stderr, "  %-14s %10.2fms\n", s.Name,
				float64(s.Elapsed.Microseconds())/1000)
		}
	}
	lint.WriteText(stdout, diags)
	if badLoad {
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
