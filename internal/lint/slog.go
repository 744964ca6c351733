package lint

import (
	"go/ast"
	"go/types"
)

// checkSlog enforces the structured-logging migration: instrumented
// packages log through log/slog (levelled, per-component, JSON-ready),
// so any call through the legacy log package — log.Printf, log.Fatal,
// log.New, ... — is flagged, as is bare fmt printing to stdout
// (fmt.Print/Printf/Println), the historical blind spot that let
// ad-hoc diagnostics bypass the logger. Identification is type-based,
// not name-based: a local variable or package named log is fine; only
// selectors resolving to the imported packages are findings. fmt's
// Sprintf/Errorf/Fprintf families stay legal — only the stdout
// printers side-step the logger.
func checkSlog(_ *Program, scope []*Package, report ReportFunc) {
	for _, p := range scope {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkg, ok := p.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				switch pkg.Imported().Path() {
				case "log":
					report(sel.Pos(),
						"legacy log.%s call; instrumented packages log through log/slog with a per-component logger",
						sel.Sel.Name)
				case "fmt":
					switch sel.Sel.Name {
					case "Print", "Printf", "Println":
						report(sel.Pos(),
							"bare fmt.%s to stdout; instrumented packages log through log/slog with a per-component logger",
							sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
