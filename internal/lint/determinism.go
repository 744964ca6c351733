package lint

import (
	"go/ast"
	"go/types"
)

// checkDeterminism enforces the seeded-substrate contract: simulation
// code may not consult the wall clock, the process-global RNG,
// crypto/rand, or the process identity. Same-seed replay tests run in
// one process, so a pid-derived seed passes every one of them; only
// this rule catches it.
func checkDeterminism(_ *Program, scope []*Package, report ReportFunc) {
	// rand.New/NewSource/NewZipf take or build explicit sources and
	// are the sanctioned construction path; everything else exported
	// from math/rand is the shared global generator.
	randConstructors := map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

	for _, p := range scope {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				// Anything from crypto/rand, called or not (rand.Reader).
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" {
						report(sel.Pos(), "crypto/rand.%s differs on every run; seeds come from a config field or parameter", sel.Sel.Name)
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name := calleePkgFunc(p, call)
				switch {
				case pkg == "time" && name == "Now":
					report(call.Pos(), "time.Now in seeded code; inject a clock or derive timestamps from the simulated hour")
				case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
					report(call.Pos(), "global math/rand.%s; draw from an injected seeded *rand.Rand instead", name)
				case pkg == "os" && (name == "Getpid" || name == "Getppid"):
					report(call.Pos(), "os.%s differs on every run; seeds come from a config field or parameter", name)
				}
				return true
			})
		}
	}
}

// calleePkgFunc resolves a call to a package-level function,
// returning the import path and function name, or "", "" for method
// calls, locals, conversions, and anything unresolved.
func calleePkgFunc(p *Package, call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	default:
		return "", ""
	}
	obj, ok := p.Info.Uses[id]
	if !ok {
		return "", ""
	}
	fnObj, ok := obj.(*types.Func)
	if !ok || fnObj.Pkg() == nil {
		return "", ""
	}
	if recv := fnObj.Type().(*types.Signature).Recv(); recv != nil {
		return "", "" // method, not a package-level function
	}
	return fnObj.Pkg().Path(), fnObj.Name()
}
