package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden want.txt files")

// module is the whole repository, loaded once for every test that
// lints it: ./... from the module root, as scripts/check.sh runs it.
var module = sync.OnceValues(func() ([]*Package, error) {
	return Load(moduleRoot, "./...")
})

const moduleRoot = "../.."

// descope widens a rule to every package so fixtures outside the
// production directories still trigger it.
func descope(r Rule) Rule {
	r.Dirs = nil
	r.TestsEverywhere = false
	return r
}

func ruleByName(t *testing.T, name string) Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no rule %q", name)
	return Rule{}
}

// fixtures is every package under testdata, loaded once (./... run
// from inside testdata, since a wildcard from here skips it) for all
// the golden subtests.
var fixtures = sync.OnceValues(func() ([]*Package, error) {
	return Load("testdata", "./...")
})

// runOnDir runs rules over the fixture packages in and below dir, an
// absolute path under testdata.
func runOnDir(t *testing.T, dir string, rules ...Rule) []Diagnostic {
	t.Helper()
	all, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	rel = filepath.ToSlash(rel)
	var pkgs []*Package
	for _, p := range all {
		if p.Rel == rel || strings.HasPrefix(p.Rel, rel+"/") {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture package in or below %s", rel)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrs {
			t.Errorf("fixture %s does not type-check: %v", dir, e)
		}
	}
	return Run(pkgs, rules)
}

// format prints diags one a line, with file names relative to dir.
func format(dir string, diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		name, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			name = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.ToSlash(name), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	}
	return b.String()
}

// TestGoldenFixtures proves every rule family fires on its violating
// fixture packages with exactly the expected diagnostics, and stays
// silent on the clean ones. A fixture is the package in
// testdata/<rule>/{bad,clean} or, where one package cannot hold every
// case, the packages below it.
func TestGoldenFixtures(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range Rules() {
		r := descope(base)
		t.Run(r.Name+"/bad", func(t *testing.T) {
			dir := filepath.Join(testdata, r.Name, "bad")
			got := format(dir, runOnDir(t, dir, r))
			if got == "" {
				t.Fatal("rule reported nothing on its violating fixture")
			}
			goldenPath := filepath.Join(dir, "want.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch (-want +got):\n--- want\n%s--- got\n%s", want, got)
			}
		})
		t.Run(r.Name+"/clean", func(t *testing.T) {
			dir := filepath.Join(testdata, r.Name, "clean")
			if got := format(dir, runOnDir(t, dir, r)); got != "" {
				t.Errorf("rule fired on the clean fixture:\n%s", got)
			}
		})
	}

	// The guard and order packages under testdata/locks were once the
	// fixtures of their own guardedby and deadlock rules. Run locks on
	// each alone, so its share of locks/bad/want.txt must come from
	// that package and not from the others merged beside it.
	locks := descope(ruleByName(t, "locks"))
	badRoot := filepath.Join(testdata, "locks", "bad")
	golden, err := os.ReadFile(filepath.Join(badRoot, "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, pkg string }{
		{"guardedby", "guard"},
		{"deadlock", "order"},
	} {
		t.Run(f.name+"/bad", func(t *testing.T) {
			var want strings.Builder
			for _, line := range strings.SplitAfter(string(golden), "\n") {
				if strings.HasPrefix(line, f.pkg+"/") {
					want.WriteString(line)
				}
			}
			if want.Len() == 0 {
				t.Fatalf("locks/bad/want.txt has no lines for %s/", f.pkg)
			}
			got := format(badRoot, runOnDir(t, filepath.Join(badRoot, f.pkg), locks))
			if got != want.String() {
				t.Errorf("diagnostics mismatch (-want +got):\n--- want\n%s--- got\n%s", want.String(), got)
			}
		})
		t.Run(f.name+"/clean", func(t *testing.T) {
			dir := filepath.Join(testdata, "locks", "clean", f.pkg)
			if got := format(dir, runOnDir(t, dir, locks)); got != "" {
				t.Errorf("locks fired on the clean fixture:\n%s", got)
			}
		})
	}
}

// TestDeliberateViolations introduces one fresh violation per rule
// family inline and asserts the analyzer catches it — the regression
// guard that a rule cannot silently go blind.
func TestDeliberateViolations(t *testing.T) {
	cases := []struct {
		rule string
		src  string
		want string // substring of the expected message
	}{
		{"determinism", `package p
import "math/rand"
func f() float64 { return rand.Float64() }
`, "global math/rand.Float64"},
		{"determinism", `package p
import "time"
func f() int64 { return time.Now().Unix() }
`, "time.Now"},
		{"determinism", `package p
import ("math/rand"; "os")
func f() *rand.Rand { return rand.New(rand.NewSource(int64(os.Getpid()))) }
`, "os.Getpid differs on every run"},
		{"determinism", `package p
import "crypto/rand"
func f() []byte { b := make([]byte, 8); rand.Read(b); return b }
`, "crypto/rand.Read differs on every run"},
		{"locks", `package p
import "sync"
var mu sync.Mutex
func f(ok bool) int {
	mu.Lock()
	if ok {
		return 1
	}
	mu.Unlock()
	return 0
}
`, "mu.Lock() can reach the return at line 7 still held"},
		{"locks", `package p
import "sync"
type T struct{ mu sync.Mutex; n int }
func (t *T) Seal() { t.mu.Lock(); t.n = -1 }
`, "t.mu.Lock() can reach the end of the function still held"},
		{"wire", `package p
import ("encoding/binary"; "io")
func f(w io.Writer) { binary.Write(w, binary.BigEndian, uint64(1)) }
`, "error discarded"},
		{"goroutine", `package p
func f() { go func() { for {} }() }
`, "no cancellation"},
		{"metrics", `package p
type collector struct{ recordCount uint64 }
func (c *collector) inc() { c.recordCount++ }
`, "bare counter field"},
		{"slog", `package p
import "log"
func f() { log.Printf("hello") }
`, "legacy log.Printf"},
		{"locks", `package p
import "sync"
type T struct{ mu sync.Mutex; n int }
func (t *T) Get() int { t.mu.Lock(); defer t.mu.Unlock(); return t.n }
func (t *T) Bump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n = t.Get() + 1
}
`, "not reentrant"},
		{"locks", `package p
import "sync"
type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
func f(a *A, b *B) { a.mu.Lock(); b.mu.Lock(); b.mu.Unlock(); a.mu.Unlock() }
func g(a *A, b *B) { b.mu.Lock(); a.mu.Lock(); a.mu.Unlock(); b.mu.Unlock() }
`, "lock order cycle: p.f holds p.A.mu while acquiring p.B.mu"},
		{"locks", `package p
import "sync"
type T struct{ mu sync.Mutex; n int }
func (t *T) Inc() { t.mu.Lock(); t.n++; t.mu.Unlock() }
func (t *T) Dec() { t.mu.Lock(); t.n--; t.mu.Unlock() }
func (t *T) Get() int { t.mu.Lock(); defer t.mu.Unlock(); return t.n }
func (t *T) Peek() int { return t.n }
`, "unguarded read of p.T.n"},
		{"locks", `package p
import "sync"
type T struct {
	mu sync.RWMutex
	//tipsy:guardedby mu
	m map[string]int
}
func (t *T) Put(k string, v int) { t.mu.RLock(); t.m[k] = v; t.mu.RUnlock() }
`, "under mu.RLock()"},
		{"locks", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Go() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() { t.n++ }()
}
`, "escaping closure"},
		// Comments that once silenced a finding are plain comments:
		// a suppression above a determinism violation, and a
		// function-wide lock opt-out above an unguarded read.
		{"determinism", `package p
import "time"
//lint:ignore determinism the wall clock is wanted here
func f() int64 { return time.Now().Unix() }
`, "time.Now in seeded code"},
		{"locks", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.n++ }

//tipsy:guardedby-skip every instance is locked in the first loop
func Sum(ts []*T) int {
	for _, t := range ts {
		t.mu.Lock()
	}
	total := 0
	for _, t := range ts {
		total += t.n
	}
	for _, t := range ts {
		t.mu.Unlock()
	}
	return total
}
`, "unguarded read of p.T.n"},
	}
	for i, tc := range cases {
		p, err := LoadSource(fmt.Sprintf("deliberate%d.go", i), tc.src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		diags := Run([]*Package{p}, []Rule{descope(ruleByName(t, tc.rule))})
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d (%s): no diagnostic containing %q; got %v", i, tc.rule, tc.want, diags)
		}
	}
}

// TestScoping checks the package gating: the determinism rule skips
// non-simulation packages except for their test files, and the
// goroutine rule skips test files everywhere.
func TestScoping(t *testing.T) {
	detSrc := `package p
import "time"
func f() int64 { return time.Now().Unix() }
`
	rule := ruleByName(t, "determinism")

	p, err := LoadSource("scope_prod.go", detSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.Rel = "internal/ipfix" // encoder package: out of determinism scope
	if diags := Run([]*Package{p}, []Rule{rule}); len(diags) != 0 {
		t.Errorf("determinism fired outside its packages: %v", diags)
	}

	p2, err := LoadSource("scope_sim.go", detSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2.Rel = "internal/netsim"
	if diags := Run([]*Package{p2}, []Rule{rule}); len(diags) != 1 {
		t.Errorf("determinism silent inside its packages: %v", diags)
	}

	p3, err := LoadSource("scope_test_file_test.go", detSrc)
	if err != nil {
		t.Fatal(err)
	}
	p3.Rel = "internal/ipfix"
	if diags := Run([]*Package{p3}, []Rule{rule}); len(diags) != 1 {
		t.Errorf("determinism must cover test files repo-wide: %v", diags)
	}

	goSrc := `package p
func f() { go func() { for {} }() }
`
	p4, err := LoadSource("scope_go_test.go", goSrc)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{p4}, []Rule{ruleByName(t, "goroutine")}); len(diags) != 0 {
		t.Errorf("goroutine rule should skip test files: %v", diags)
	}
}

// TestLoadPatterns holds Load to the go command's reading of ./...
// from the module root: it finds internal/lint, never descends into
// testdata (the fixtures must never gate the real tree), and of
// internal/alloctest's //go:build race / !race pair loads the !race
// file, as the default build does.
func TestLoadPatterns(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]string{}
	for _, p := range pkgs {
		if strings.Contains(p.Rel, "testdata") {
			t.Errorf("./... descended into %s", p.Rel)
		}
		for _, f := range p.Files {
			files[p.Rel] = append(files[p.Rel], filepath.Base(p.Fset.Position(f.Pos()).Filename))
		}
	}
	if files["internal/lint"] == nil {
		t.Error("./... did not find internal/lint")
	}
	if got := files["internal/alloctest"]; !slices.Contains(got, "norace.go") || slices.Contains(got, "race.go") {
		t.Errorf("internal/alloctest loads %v, want norace.go and not race.go", got)
	}
}
