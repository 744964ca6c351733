package lint

import (
	"go/ast"
	"go/token"
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
// The pass reuses the deep tier's provenance engine: every literal
// gets a TagAlloc identity tag at creation (funcLitTagger hook) and
// the tag is followed through locals, assignments, and wrapper calls
// to the escape points.

// escapeHooks instantiates the provenance engine for closure
// tracking. Calls pass tags through: a closure returned by a helper,
// or wrapped and returned, keeps its identity.
type escapeHooks struct{}

func (escapeHooks) EvalCall(call *ast.CallExpr, recv tagSet, args []tagSet) []tagSet {
	return []tagSet{union(append(args, recv)...)}
}

func (escapeHooks) RangeTags(rs *ast.RangeStmt, xTags tagSet) (key, val tagSet) {
	// Ranging over a container of closures yields the closures.
	return nil, xTags
}

func (escapeHooks) FuncLitTags(lit *ast.FuncLit) tagSet {
	return singleton(Tag{Kind: TagAlloc, Site: lit.Pos()})
}

// escapingClosures reports, for every function literal in fd's body
// (nested literals included), whether its value escapes the function
// that creates it. Keys are the literals' positions.
func escapingClosures(pkg *Package, fd *ast.FuncDecl) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	if fd.Body == nil {
		return out
	}
	scanEscapes(pkg, analyzeFunc(pkg, fd, escapeHooks{}), out)
	return out
}

// scanEscapes replays one analyzed body and marks every TagAlloc tag
// that reaches an escape point. Nested literals are analyzed with the
// environment captured where they appear, so a closure leaked from
// inside another closure is still caught.
func scanEscapes(pkg *Package, pv *provenance, out map[token.Pos]bool) {
	mark := func(tags tagSet) {
		for t := range tags {
			if t.Kind == TagAlloc {
				out[t.Site] = true
			}
		}
	}
	type litWork struct {
		lit *ast.FuncLit
		e   env
	}
	var lits []litWork
	pv.visit(func(s ast.Stmt, e env) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				mark(pv.eval(res, e))
			}
		case *ast.SendStmt:
			mark(pv.eval(s.Value, e))
		case *ast.AssignStmt:
			// A store through a field, element, or pointer target makes
			// the value reachable beyond the frame.
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					mark(pv.eval(s.Rhs[i], e))
				}
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				out[lit.Pos()] = true
			} else {
				mark(pv.eval(s.Call.Fun, e))
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				out[lit.Pos()] = true
			} else {
				mark(pv.eval(s.Call.Fun, e))
			}
		}
		inspectShallow(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case nil:
				return true
			case *ast.FuncLit:
				lits = append(lits, litWork{n, e.clone()})
				return false
			case *ast.CallExpr:
				// Passing a closure as an argument hands the value to
				// the callee; invoking a closure directly does not.
				if tv, ok := pkg.Info.Types[ast.Unparen(n.Fun)]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				for _, a := range n.Args {
					mark(pv.eval(a, e))
				}
			}
			return true
		})
	})
	for _, w := range lits {
		scanEscapes(pkg, analyzeFuncLit(pkg, w.lit, w.e, escapeHooks{}), out)
	}
}
