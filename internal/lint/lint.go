// Package lint is tipsylint's analysis engine: a stdlib-only static
// checker enforcing the repository's determinism, lock-hygiene,
// wire-encoder, goroutine, and metrics conventions. See README.md in
// this directory for the rule catalogue and the suppression syntax.
package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one analyzer family. A rule is either syntactic (Check:
// a per-package AST walk) or deep (DeepCheck: runs once over the
// whole loaded module with the call graph available); exactly one of
// the two is set.
type Rule struct {
	Name string
	Doc  string
	// Dirs restricts the rule to packages whose module-relative path
	// is, or is under, one of these; nil applies everywhere.
	Dirs []string
	// SkipTests drops findings located in _test.go files.
	SkipTests bool
	// TestsEverywhere extends a Dirs-restricted rule to the _test.go
	// files of every package: test runs must obey the same discipline
	// as the code they pin down.
	TestsEverywhere bool
	Check           func(p *Package, report ReportFunc)
	// DeepCheck is the deep-tier entry point. scope holds the
	// packages the rule's Dirs admit (all packages when Dirs is nil);
	// prog gives the whole-module view for cross-package resolution.
	// Findings are filtered against scope, test-file policy, and
	// suppressions by the driver, so a DeepCheck may over-report.
	DeepCheck func(prog *Program, scope []*Package, report ReportFunc)
}

// Program is the whole-module view handed to deep rules: every loaded
// package and the intra-module call graph. All packages must come
// from one Loader (they share its FileSet). A Program is built per Run
// call and is not written to after construction.
type Program struct {
	Pkgs   []*Package
	Fset   *token.FileSet
	Graph  *CallGraph
	byFile map[string]*Package
}

// NewProgram indexes pkgs for deep analysis.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:   pkgs,
		Graph:  buildCallGraph(pkgs),
		byFile: map[string]*Package{},
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			prog.byFile[p.Fset.Position(f.Pos()).Filename] = p
		}
	}
	return prog
}

// pkgOf returns the package owning the file at pos.
func (prog *Program) pkgOf(pos token.Position) *Package {
	return prog.byFile[pos.Filename]
}

// ReportFunc records a finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Rules returns the full analyzer set with the repository's package
// scoping. simDirs are the seeded-simulation packages where
// wall-clock and ambient randomness are banned; wireDirs are the
// protocol encoder packages where dropped write errors are banned.
func Rules() []Rule {
	simDirs := []string{
		"internal/netsim", "internal/topology", "internal/traffic",
		"internal/core", "internal/wan",
	}
	wireDirs := []string{"internal/ipfix", "internal/bgp"}
	return []Rule{
		{
			Name:            "determinism",
			Doc:             "forbid wall-clock time, ambient randomness, entropy, and process identity in simulation code and in tests",
			Dirs:            simDirs,
			TestsEverywhere: true,
			Check:           checkDeterminism,
		},
		{
			Name:      "locks",
			Doc:       "run a must-hold lock dataflow over each function's CFG and flag locks held at a return, lock-order cycles, self-deadlocks, and accesses to a field without its guarding mutex (a //tipsy:guardedby pin or a 3/4 majority of locked accesses), writes under RLock, and escaping-closure accesses",
			SkipTests: true,
			DeepCheck: checkLocks,
		},
		{
			Name:  "wire",
			Doc:   "flag dropped encoder write errors",
			Dirs:  wireDirs,
			Check: checkWire,
		},
		{
			Name:      "goroutine",
			Doc:       "flag goroutines with no cancellation path",
			SkipTests: true,
			Check:     checkGoroutine,
		},
		{
			Name:      "metrics",
			Doc:       "flag bare integer counter fields in instrumented packages; counters belong on the obsv registry",
			Dirs:      []string{"internal/ipfix", "internal/pipeline", "internal/serve", "cmd/tipsyd"},
			SkipTests: true,
			Check:     checkMetrics,
		},
		{
			Name: "slog",
			Doc:  "flag legacy log package calls and bare fmt printing in instrumented packages; they log through log/slog",
			Dirs: []string{
				"cmd/tipsyd",
				"internal/monitor", "internal/obsv", "internal/pipeline",
				"internal/chaos", "internal/serve",
			},
			SkipTests: true,
			Check:     checkSlog,
		},
	}
}

func (r Rule) appliesTo(p *Package) bool {
	if r.Dirs == nil {
		return true
	}
	for _, d := range r.Dirs {
		if p.Rel == d || strings.HasPrefix(p.Rel, d+"/") {
			return true
		}
	}
	return false
}

// RuleStat records how long one analysis stage spent. SubstrateStat
// names the deep tier's shared Program construction (call graph +
// package index), which no single rule owns.
type RuleStat struct {
	Name    string
	Elapsed time.Duration
}

// SubstrateStat is the RuleStat name for building the deep-tier
// Program.
const SubstrateStat = "(substrate)"

// Run applies the rules to the packages, honouring per-rule scoping
// and //lint:ignore suppressions, and returns findings sorted by
// position. Syntactic rules walk each package independently; deep
// rules run once over a Program built from the full package set.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	diags, _ := RunStats(pkgs, rules)
	return diags
}

// RunStats is Run, additionally reporting wall time per rule (summed
// over packages for syntactic rules) plus a SubstrateStat entry for
// the deep tier's shared Program build. Stats follow registry order.
func RunStats(pkgs []*Package, rules []Rule) ([]Diagnostic, []RuleStat) {
	elapsed := map[string]time.Duration{}
	var diags []Diagnostic
	for _, p := range pkgs {
		ignores := collectIgnores(p)
		for _, r := range rules {
			if r.Check == nil {
				continue
			}
			inScope := r.appliesTo(p)
			if !inScope && !r.TestsEverywhere {
				continue
			}
			start := time.Now()
			r.Check(p, func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				isTest := strings.HasSuffix(position.Filename, "_test.go")
				if r.SkipTests && isTest {
					return
				}
				if !inScope && !(r.TestsEverywhere && isTest) {
					return
				}
				if ignores.suppressed(r.Name, position) {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:     position,
					Rule:    r.Name,
					Message: fmt.Sprintf(format, args...),
				})
			})
			elapsed[r.Name] += time.Since(start)
		}
	}
	diags = append(diags, runDeep(pkgs, rules, elapsed)...)
	sortDiagnostics(diags)
	var stats []RuleStat
	for _, r := range rules {
		if d, ok := elapsed[r.Name]; ok {
			stats = append(stats, RuleStat{Name: r.Name, Elapsed: d})
		}
	}
	if d, ok := elapsed[SubstrateStat]; ok {
		stats = append(stats, RuleStat{Name: SubstrateStat, Elapsed: d})
	}
	return diags, stats
}

// sortDiagnostics orders findings by position then rule — the order
// Run returns and the CLI prints.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// runDeep builds the Program (once) and runs every deep rule over
// it, applying the same scope, test-file, and suppression policy as
// the syntactic pass. Wall time is accumulated into elapsed per rule,
// with the Program build itself under SubstrateStat.
func runDeep(pkgs []*Package, rules []Rule, elapsed map[string]time.Duration) []Diagnostic {
	var deep []Rule
	for _, r := range rules {
		if r.DeepCheck != nil {
			deep = append(deep, r)
		}
	}
	if len(deep) == 0 || len(pkgs) == 0 {
		return nil
	}
	start := time.Now()
	prog := NewProgram(pkgs)
	elapsed[SubstrateStat] += time.Since(start)
	allIgnores := ignoreSet{}
	for _, p := range pkgs {
		for file, lines := range collectIgnores(p) {
			allIgnores[file] = lines
		}
	}
	var diags []Diagnostic
	for _, r := range deep {
		var scope []*Package
		for _, p := range pkgs {
			if r.appliesTo(p) || r.TestsEverywhere {
				scope = append(scope, p)
			}
		}
		start := time.Now()
		r.DeepCheck(prog, scope, func(pos token.Pos, format string, args ...any) {
			position := prog.Fset.Position(pos)
			owner := prog.pkgOf(position)
			if owner == nil {
				return
			}
			isTest := strings.HasSuffix(position.Filename, "_test.go")
			if r.SkipTests && isTest {
				return
			}
			if !r.appliesTo(owner) && !(r.TestsEverywhere && isTest) {
				return
			}
			if allIgnores.suppressed(r.Name, position) {
				return
			}
			diags = append(diags, Diagnostic{
				Pos:     position,
				Rule:    r.Name,
				Message: fmt.Sprintf(format, args...),
			})
		})
		elapsed[r.Name] += time.Since(start)
	}
	return diags
}

// ignoreSet maps file -> line -> rule names suppressed on that line.
type ignoreSet map[string]map[int][]string

// collectIgnores gathers //lint:ignore <rule> <reason> directives. A
// directive suppresses matching findings on its own line and on the
// line directly below (the usual "comment above the statement"
// placement). The reason is mandatory; a bare rule name is ignored so
// that silencing a finding always costs an explanation.
func collectIgnores(p *Package) ignoreSet {
	set := ignoreSet{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // no reason given: directive is void
				}
				pos := p.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					set[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
				lines[pos.Line+1] = append(lines[pos.Line+1], fields[0])
			}
		}
	}
	return set
}

func (s ignoreSet) suppressed(rule string, pos token.Position) bool {
	for _, r := range s[pos.Filename][pos.Line] {
		if r == rule || r == "all" {
			return true
		}
	}
	return false
}

// WriteText prints one finding per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}
