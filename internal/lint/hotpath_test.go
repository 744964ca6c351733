package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hotSrc is a minimal hot tree: one root with one append-loop site
// and one allocation-free helper.
const hotSrc = `package p

//tipsy:hotpath
func ingest(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, bump(x))
	}
	return out
}

func bump(x int) int { return x + 1 }
`

func loadHot(t *testing.T, src string) *Package {
	t.Helper()
	p, err := loader(t).LoadSource("hot.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func writeBudget(t *testing.T, b *Budget) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), BudgetFilename)
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func hotpathRule(t *testing.T, budgetPath string) Rule {
	t.Helper()
	for _, r := range RulesWithBudget(budgetPath) {
		if r.Name == "hotpath" {
			return r
		}
	}
	t.Fatal("no hotpath rule")
	return Rule{}
}

// TestHotpathNewFunctionRatchetsFromZero: a hot function with no
// budget entry is over budget immediately — new hot code starts at
// zero allowance.
func TestHotpathNewFunctionRatchetsFromZero(t *testing.T) {
	p := loadHot(t, hotSrc)
	diags := Run([]*Package{p}, []Rule{hotpathRule(t, filepath.Join(t.TempDir(), BudgetFilename))})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "budget 0") {
		t.Fatalf("want one budget-0 finding, got %v", diags)
	}
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	deltas := DiffBudget(NewBudget(), rep, nil)
	if len(deltas) != 1 || deltas[0].Kind != "new" || deltas[0].Observed != 1 {
		t.Fatalf("want one 'new' delta, got %+v", deltas)
	}
}

// TestHotpathBudgetAbsorbsSites: a budget matching the tree silences
// the rule; one lower than the tree (the grown case) does not.
func TestHotpathBudgetAbsorbsSites(t *testing.T) {
	p := loadHot(t, hotSrc)
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	exact := BudgetFromReport(rep)
	if diags := Run([]*Package{p}, []Rule{hotpathRule(t, writeBudget(t, exact))}); len(diags) != 0 {
		t.Fatalf("exact budget still flags: %v", diags)
	}
	if deltas := DiffBudget(exact, rep, nil); len(deltas) != 0 {
		t.Fatalf("exact budget diffs: %+v", deltas)
	}

	tight := NewBudget()
	for id, cats := range exact.Budgets {
		tight.Budgets[id] = map[string]int{}
		for c := range cats {
			tight.Budgets[id][c] = 0
		}
	}
	if diags := Run([]*Package{p}, []Rule{hotpathRule(t, writeBudget(t, tight))}); len(diags) == 0 {
		t.Fatal("grown count over a zero budget not flagged")
	}
	deltas := DiffBudget(tight, rep, nil)
	if len(deltas) != 1 || deltas[0].Kind != "grown" {
		t.Fatalf("want one 'grown' delta, got %+v", deltas)
	}
}

// TestHotpathStaleAndShrunkEntries: entries for deleted (or no longer
// hot) functions and counts above the tree both surface in the diff,
// and the package filter keeps out-of-run packages uncondemned.
func TestHotpathStaleAndShrunkEntries(t *testing.T) {
	p := loadHot(t, hotSrc)
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	b := BudgetFromReport(rep)
	var hotID string
	for id := range b.Budgets {
		hotID = id
	}
	b.Budgets[hotID][CatAppendLoop] = 5 // tree has 1: shrunk
	b.Budgets["tipsy/internal/gone.Deleted"] = map[string]int{CatBoxing: 2}

	deltas := DiffBudget(b, rep, nil)
	if len(deltas) != 2 {
		t.Fatalf("want shrunk+stale, got %+v", deltas)
	}
	kinds := map[string]bool{}
	for _, d := range deltas {
		kinds[d.Kind] = true
	}
	if !kinds["shrunk"] || !kinds["stale"] {
		t.Fatalf("want kinds shrunk and stale, got %+v", deltas)
	}

	// With the deleted function's package outside the analyzed set,
	// the stale judgment is withheld.
	loaded := func(pp string) bool { return pp != "tipsy/internal/gone" }
	for _, d := range DiffBudget(b, rep, loaded) {
		if d.Kind == "stale" {
			t.Fatalf("stale reported for an unloaded package: %+v", d)
		}
	}
}

// TestBudgetMarshalIdempotent: marshal -> load -> marshal is byte
// identical, the property -update-budget's no-diff gate rests on.
func TestBudgetMarshalIdempotent(t *testing.T) {
	p := loadHot(t, hotSrc)
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	first := BudgetFromReport(rep).Marshal()
	path := filepath.Join(t.TempDir(), BudgetFilename)
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if second := reloaded.Marshal(); !bytes.Equal(first, second) {
		t.Errorf("marshal not idempotent:\n--- first\n%s--- second\n%s", first, second)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("budget file must end with a newline")
	}
}

// TestLoadBudgetMissingFile: an absent ratchet file is the empty
// budget, not an error.
func TestLoadBudgetMissingFile(t *testing.T) {
	b, err := LoadBudget(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Budgets) != 0 {
		t.Errorf("missing file produced entries: %+v", b.Budgets)
	}
	if _, err := LoadBudget(writeCorrupt(t)); err == nil {
		t.Error("corrupt budget file loaded without error")
	}
}

func writeCorrupt(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), BudgetFilename)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHotClosureInterfaceDispatch: a hot interface call keeps every
// in-module implementer hot.
func TestHotClosureInterfaceDispatch(t *testing.T) {
	p := loadHot(t, `package p

type sink interface{ drain([]int) }

type slow struct{}

func (slow) drain(xs []int) {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	_ = out
}

//tipsy:hotpath
func pump(s sink, xs []int) { s.drain(xs) }
`)
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	hf := rep.Funcs["tipsy.slow.drain"]
	if hf == nil {
		t.Fatalf("interface implementer not in hot closure: %v", rep.Order)
	}
	if hf.Via != "tipsy.pump" {
		t.Errorf("via = %q, want tipsy.pump", hf.Via)
	}
	if len(hf.Sites) != 1 || hf.Sites[0].Category != CatAppendLoop {
		t.Errorf("implementer sites = %+v", hf.Sites)
	}
}

// TestHotClosureSkipsTestFiles: a fake declared in a _test.go file that
// implements a hot interface is not budgeted, and neither is a root
// annotated there.
func TestHotClosureSkipsTestFiles(t *testing.T) {
	l := loader(t)
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(l.Fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	p := l.check([]*ast.File{
		parse("hot.go", `package p

type sink interface{ drain([]int) }

//tipsy:hotpath
func pump(s sink, xs []int) { s.drain(xs) }
`),
		parse("fake_test.go", `package p

type fake struct{}

func (fake) drain(xs []int) {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	_ = out
}

//tipsy:hotpath
func testOnlyRoot(xs []int) { fake{}.drain(xs) }
`),
	}, ".", ".")
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	if len(rep.Roots) != 1 || rep.Roots[0] != "tipsy.pump" {
		t.Errorf("roots = %v, want only tipsy.pump", rep.Roots)
	}
	if len(rep.Order) != 1 || rep.Order[0] != "tipsy.pump" {
		t.Errorf("hot closure = %v, want only tipsy.pump", rep.Order)
	}
}

// TestEscapeAnalysis pins the closure classifier on both sides:
// escaping (returned, stored, passed, via helper) and non-escaping
// (immediately invoked, called locally).
func TestEscapeAnalysis(t *testing.T) {
	p := loadHot(t, `package p

var hooks []func()

func keep(f func()) func() { return f }

//tipsy:hotpath
func leaky() func() {
	n := 0
	a := func() { n++ }        // escapes: returned through a local
	hooks = append(hooks, a)   // and stored globally
	b := keep(func() { n-- })  // escapes: passed to a helper
	_ = b
	return a
}

//tipsy:hotpath
func tight(xs []int) int {
	acc := 0
	add := func(x int) { acc += x } // never leaves the frame
	for _, x := range xs {
		add(x)
	}
	return acc
}
`)
	rep := AnalyzeHotpaths(NewProgram([]*Package{p}))
	count := func(id string) int {
		n := 0
		for _, s := range rep.Funcs[id].Sites {
			if s.Category == CatClosure {
				n++
			}
		}
		return n
	}
	if got := count("tipsy.leaky"); got != 2 {
		t.Errorf("leaky: %d closure-escape sites, want 2: %+v", got, rep.Funcs["tipsy.leaky"].Sites)
	}
	if got := count("tipsy.tight"); got != 0 {
		t.Errorf("tight: local-only closure reported escaping: %+v", rep.Funcs["tipsy.tight"].Sites)
	}
}
