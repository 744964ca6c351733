package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the closure-escape pass. The locks rule uses it to tell a
// literal that runs inside its creator's critical section from one
// that may run once the locks held at its creation are gone. A
// function literal whose value stays inside its creating function —
// an immediately-invoked literal, or one held in a local and only
// ever called — runs where it is called. One whose value LEAVES the
// function runs wherever its new holder calls it: returned, stored
// into a field, slice, map, or pointer target, sent on a channel,
// passed to another function, deferred, or launched as a goroutine.
// The pass is flow-insensitive: each local is bound, to a fixpoint, to
// every literal its right-hand sides anywhere in the body mention, and
// a literal escapes when it, or a local bound to it, reaches one of
// those points.

// escapingClosures reports, for every function literal in fd's body
// (nested literals included), whether its value escapes the function
// that creates it. Keys are the literals' positions.
func escapingClosures(pkg *Package, fd *ast.FuncDecl) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	if fd.Body == nil {
		return out
	}
	type binding struct {
		obj types.Object
		rhs []ast.Expr
	}
	var binds []binding
	var sinks []ast.Expr
	// assign files lhs = rhs: a local is bound to what its rhs carries;
	// any other target (field, element, pointer, package variable) is a
	// store that makes the value reachable beyond the frame.
	assign := func(lhs, rhs []ast.Expr) {
		for i, l := range lhs {
			r := rhs
			if len(lhs) == len(rhs) {
				r = rhs[i : i+1]
			}
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				sinks = append(sinks, r...)
			} else if obj := pkg.Info.ObjectOf(id); obj != nil && obj.Parent() == pkg.Types.Scope() {
				sinks = append(sinks, r...)
			} else if obj != nil {
				binds = append(binds, binding{obj, r})
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			assign(lhs, n.Values)
		case *ast.RangeStmt:
			// Ranging over a container of closures yields the closures.
			if n.Value != nil {
				assign([]ast.Expr{n.Value}, []ast.Expr{n.X})
			}
		case *ast.ReturnStmt:
			sinks = append(sinks, n.Results...)
		case *ast.SendStmt:
			sinks = append(sinks, n.Value)
		case *ast.GoStmt:
			sinks = append(sinks, n.Call.Fun)
		case *ast.DeferStmt:
			sinks = append(sinks, n.Call.Fun)
		case *ast.CallExpr:
			// Passing a closure as an argument hands the value to the
			// callee; a conversion does not.
			if tv, ok := pkg.Info.Types[ast.Unparen(n.Fun)]; !ok || !tv.IsType() {
				sinks = append(sinks, n.Args...)
			}
		}
		return true
	})

	// mentions calls f for every literal x evaluates to or carries: the
	// literals written in it and those bound to the locals it names. A
	// call's result carries its arguments, not the function it calls.
	bound := map[types.Object]map[token.Pos]bool{}
	var mentions func(x ast.Expr, f func(token.Pos))
	mentions = func(x ast.Expr, f func(token.Pos)) {
		ast.Inspect(x, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				f(n.Pos())
				return false
			case *ast.Ident:
				for lit := range bound[pkg.Info.Uses[n]] {
					f(lit)
				}
			case *ast.CallExpr:
				for _, a := range n.Args {
					mentions(a, f)
				}
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, b := range binds {
			for _, r := range b.rhs {
				mentions(r, func(lit token.Pos) {
					if bound[b.obj] == nil {
						bound[b.obj] = map[token.Pos]bool{}
					}
					if !bound[b.obj][lit] {
						bound[b.obj][lit] = true
						changed = true
					}
				})
			}
		}
	}
	for _, s := range sinks {
		mentions(s, func(lit token.Pos) { out[lit] = true })
	}
	return out
}
