package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkGoroutine reviews every `go func` literal in non-test code and
// flags a body with no cancellation or completion path at all — no
// context, no channel, no WaitGroup — which a long-running daemon can
// neither stop nor await.
func checkGoroutine(_ *Program, scope []*Package, report ReportFunc) {
	for _, p := range scope {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && !hasCancellationPath(p, lit) {
						report(g.Pos(), "goroutine has no cancellation or completion path; thread a context.Context, stop channel, or WaitGroup through it")
					}
				}
				return true
			})
		}
	}
}

// hasCancellationPath reports whether the goroutine body touches any
// mechanism that can stop it or signal its completion: a channel
// operation, a select, a context.Context value, or a sync.WaitGroup.
func hasCancellationPath(p *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel is a receive loop; closing the
			// channel stops it.
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && isSignalType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSignalType matches channels, context.Context, and sync.WaitGroup
// (by value or pointer).
func isSignalType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "context" && obj.Name() == "Context":
		return true
	case obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup":
		return true
	}
	return false
}
