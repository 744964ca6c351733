package lint

import (
	"go/ast"
	"testing"
)

// TestEscapeAnalysis pins the closure classifier on both sides:
// escaping (returned, stored, passed, via helper, launched through a
// copy, ranged out of a slice) and non-escaping (immediately invoked,
// called locally).
func TestEscapeAnalysis(t *testing.T) {
	p, err := LoadSource("escape.go", `package p

var hooks []func()

func keep(f func()) func() { return f }

func leaky() func() {
	n := 0
	a := func() { n++ }        // escapes: returned through a local
	hooks = append(hooks, a)   // and stored globally
	b := keep(func() { n-- })  // escapes: passed to a helper
	_ = b
	return a
}

func tight(xs []int) int {
	acc := 0
	add := func(x int) { acc += x } // never leaves the frame
	for _, x := range xs {
		add(x)
	}
	return acc
}

func relaunch() {
	c := func() {} // escapes: copied to d, which is launched
	d := c
	go d()
}

func ranged() {
	fs := []func(){func() {}, func() {}} // both escape: ranged out and launched
	for _, f := range fs {
		go f()
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	escaping := map[string]int{}
	for _, d := range p.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			for _, esc := range escapingClosures(p, fd) {
				if esc {
					escaping[fd.Name.Name]++
				}
			}
		}
	}
	if got := escaping["leaky"]; got != 2 {
		t.Errorf("leaky: %d escaping closures, want 2", got)
	}
	if got := escaping["relaunch"]; got != 1 {
		t.Errorf("relaunch: %d escaping closures, want 1", got)
	}
	if got := escaping["ranged"]; got != 2 {
		t.Errorf("ranged: %d escaping closures, want 2", got)
	}
	if got := escaping["tight"]; got != 0 {
		t.Errorf("tight: local-only closure reported escaping")
	}
}
