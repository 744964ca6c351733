package lint

import (
	"go/ast"
	"strings"
)

// checkWalltime enforces the injected-clock contract in instrumented
// packages: span timestamps, per-rung latencies, and quality windows
// must come from the owner's injectable clock so tests can swap in a
// fake and golden byte-identical traces. Direct time.Now / time.Since
// calls are flagged unless the enclosing function is a declared clock
// source — //tipsy:clocksource in its doc comment — which is the one
// sanctioned place per package where the wall clock enters.
func checkWalltime(p *Package, report ReportFunc) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isClockSource(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, name := calleePkgFunc(p, call); pkg == "time" && (name == "Now" || name == "Since") {
					report(call.Pos(), "time.%s in clock-injected code; read the owner's injected clock (or declare the function //tipsy:clocksource)", name)
				}
				return true
			})
		}
	}
}

// isClockSource reports whether the function's doc comment carries the
// //tipsy:clocksource directive. The directive covers the whole body,
// including closures built inside it.
func isClockSource(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//tipsy:clocksource" {
			return true
		}
	}
	return false
}
