// Package lint is tipsylint's analysis engine: a stdlib-only static
// checker enforcing the repository's determinism, wire-encoder,
// goroutine, metrics, and logging conventions. See README.md in this
// directory for the rule catalogue.
package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
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

// Rule is one analyzer family. Check runs once over the loaded
// packages: scope holds the packages the rule's Dirs admit (all of
// them when Dirs is nil or TestsEverywhere is set). Run filters
// findings by the package owning them and by test-file policy, so a
// Check may over-report.
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
	Check           func(scope []*Package, report ReportFunc)
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
		"internal/core", "internal/eval", "internal/wan",
	}
	wireDirs := []string{"internal/ipfix"}
	return []Rule{
		{
			Name:            "determinism",
			Doc:             "forbid wall-clock time, ambient randomness, entropy, and process identity in simulation code and in tests",
			Dirs:            simDirs,
			TestsEverywhere: true,
			Check:           checkDeterminism,
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

// Run applies every rule to pkgs, which must come from one Load call
// (they share its FileSet), and returns the findings that fall in the
// rule's scope and test-file policy, sorted by position.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	owners := map[string]*Package{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			owners[fset.Position(f.Pos()).Filename] = p
		}
	}
	var diags []Diagnostic
	for _, r := range rules {
		var scope []*Package
		for _, p := range pkgs {
			if r.TestsEverywhere || r.appliesTo(p) {
				scope = append(scope, p)
			}
		}
		r.Check(scope, func(pos token.Pos, format string, args ...any) {
			position := fset.Position(pos)
			owner := owners[position.Filename]
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
			diags = append(diags, Diagnostic{
				Pos:     position,
				Rule:    r.Name,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
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
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}

// WriteText prints one finding per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}
