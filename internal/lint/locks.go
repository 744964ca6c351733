package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkLocks enforces that a Lock()/RLock() is released on every
// return path: either by an immediate defer, or by an explicit Unlock
// textually preceding each later return. (A lock copied through a
// value receiver is go vet's copylocks finding.)
func checkLocks(p *Package, report ReportFunc) {
	for _, f := range p.Files {
		// Each function body, literal or declared, is its own
		// lock-discipline scope.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockPaths(p, fn.Body, report)
				}
			case *ast.FuncLit:
				checkLockPaths(p, fn.Body, report)
			}
			return true
		})
	}
}

// lockEvent is one mutex-related statement inside a function body.
type lockEvent struct {
	pos     token.Pos
	recv    string // printed receiver expression, e.g. "s.mu"
	read    bool   // RLock/RUnlock flavor
	kind    int    // evLock, evUnlock, evDefer, evReturn
	display string
}

const (
	evLock = iota
	evUnlock
	evDefer
	evReturn
)

// checkLockPaths walks one function body (nested literals excluded)
// and flags Lock calls that some return path exits without releasing.
func checkLockPaths(p *Package, body *ast.BlockStmt, report ReportFunc) {
	var events []lockEvent
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own scope
		case *ast.ReturnStmt:
			events = append(events, lockEvent{pos: n.Pos(), kind: evReturn})
		case *ast.DeferStmt:
			if recv, read, isUnlock := mutexCall(p, n.Call, "Unlock", "RUnlock"); isUnlock {
				events = append(events, lockEvent{pos: n.Pos(), recv: recv, read: read, kind: evDefer})
			}
		case *ast.CallExpr:
			if recv, read, isLock := mutexCall(p, n, "Lock", "RLock"); isLock {
				name := "Lock"
				if read {
					name = "RLock"
				}
				events = append(events, lockEvent{pos: n.Pos(), recv: recv, read: read, kind: evLock, display: recv + "." + name})
			} else if recv, read, isUnlock := mutexCall(p, n, "Unlock", "RUnlock"); isUnlock {
				events = append(events, lockEvent{pos: n.Pos(), recv: recv, read: read, kind: evUnlock})
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	for i, lock := range events {
		if lock.kind != evLock {
			continue
		}
		// A matching defer anywhere in the function releases every
		// path from here on.
		deferred := false
		for _, e := range events {
			if e.kind == evDefer && e.recv == lock.recv && e.read == lock.read {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		// Without a defer, every later return must be preceded (since
		// the lock, textually) by an explicit unlock; a function that
		// falls off its end needs at least one.
		released, returns := false, 0
		for _, e := range events[i+1:] {
			switch {
			case e.kind == evUnlock && e.recv == lock.recv && e.read == lock.read:
				released = true
			case e.kind == evLock && e.recv == lock.recv && e.read == lock.read:
				// Re-acquired: later returns are that lock's problem.
			case e.kind == evReturn:
				returns++
				if !released {
					report(lock.pos, "%s() can reach the return at line %d still held; release with defer %s.%s()",
						lock.display, p.Fset.Position(e.pos).Line, lock.recv, unlockName(lock.read))
					return
				}
			}
		}
		if returns == 0 && !released {
			report(lock.pos, "%s() is never released in this function; add defer %s.%s()",
				lock.display, lock.recv, unlockName(lock.read))
		}
	}
}

func unlockName(read bool) string {
	if read {
		return "RUnlock"
	}
	return "Unlock"
}

// mutexCall reports whether call invokes one of the two named methods
// on a sync.Mutex/RWMutex, returning the printed receiver expression
// and whether it is the reader flavor.
func mutexCall(p *Package, call *ast.CallExpr, writeName, readName string) (recv string, read bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	if name != writeName && name != readName {
		return "", false, false
	}
	obj, found := p.Info.Uses[sel.Sel]
	if !found {
		return "", false, false
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	return types.ExprString(sel.X), name == readName, true
}
