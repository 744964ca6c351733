package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the intra-module call graph the rules
// walk. Nodes are the module's declared functions and methods; edges
// are static calls plus interface calls resolved to every in-module
// implementer of the interface. Because each analysis package is
// type-checked in its own universe (see load.go), functions are keyed
// by a stable string identity — import path, receiver type, name —
// rather than by *types.Func pointer, so a call in package B to a
// function of package A lands on the same node whichever type-check
// produced the object.

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	ID   string // stable identity, e.g. "tipsy/internal/wan.Table.Lookup"
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Sites are this function's outgoing call sites in source order.
	Sites []*CallSite
}

// CallSite is one call expression inside a FuncNode body.
type CallSite struct {
	Call *ast.CallExpr
	// Callees are the in-module targets: one for a static call, any
	// number for an interface call (every in-module implementer).
	// Empty for calls that leave the module or cannot be resolved.
	Callees []*FuncNode
	// SameRecv marks a method call whose receiver expression is the
	// enclosing method's own receiver identifier — the case where a
	// non-reentrant lock deadlocks for sure.
	SameRecv bool
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes maps stable identity to node. Order holds the IDs sorted,
	// for deterministic iteration.
	Nodes map[string]*FuncNode
	Order []string
}

// FuncID computes the stable identity of fn: import path, dot,
// receiver type name (for methods), dot, function name. Generic
// instantiations collapse onto their origin declaration.
func FuncID(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return path + "." + name + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// recvTypeName returns the bare name of the receiver's named type,
// looking through one pointer, or "" for unnamed receivers.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return recvTypeName(types.Unalias(t))
	}
	return ""
}

// buildCallGraph indexes every declared function in pkgs and resolves
// each call site. Interface calls resolve to the in-module named
// types whose method sets implement the interface.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[string]*FuncNode{}}

	// Pass 1: index declarations.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := FuncID(obj)
				// Keep the first declaration per identity: an analysis
				// package and its _test twin never collide, but a
				// malformed tree might; first wins deterministically
				// because pkgs arrive in sorted directory order.
				if _, dup := g.Nodes[id]; dup {
					continue
				}
				g.Nodes[id] = &FuncNode{ID: id, Obj: obj, Decl: fd, Pkg: p}
			}
		}
	}
	g.Order = make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		g.Order = append(g.Order, id)
	}
	sort.Strings(g.Order)

	// Method-set index for interface resolution: method name -> nodes
	// declared with that name, tried against the interface below.
	byMethodName := map[string][]*FuncNode{}
	for _, id := range g.Order {
		n := g.Nodes[id]
		if n.Decl.Recv != nil {
			byMethodName[n.Obj.Name()] = append(byMethodName[n.Obj.Name()], n)
		}
	}

	// Pass 2: resolve call sites.
	for _, id := range g.Order {
		n := g.Nodes[id]
		recvName := receiverIdent(n.Decl)
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			site := resolveCall(g, n.Pkg, call, recvName, byMethodName)
			if site != nil {
				n.Sites = append(n.Sites, site)
			}
			return true
		})
	}
	return g
}

// receiverIdent returns the name of fd's receiver identifier, or "".
func receiverIdent(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// resolveCall classifies one call expression. Calls to builtins,
// conversions, and func-typed values return nil — the graph is
// deliberately conservative about indirect calls.
func resolveCall(g *CallGraph, p *Package, call *ast.CallExpr, recvName string, byMethodName map[string][]*FuncNode) *CallSite {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	var sel *ast.SelectorExpr
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id, sel = f.Sel, f
	default:
		return nil
	}
	obj, ok := p.Info.Uses[id]
	if !ok {
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil // builtin, conversion, or func-typed variable
	}
	site := &CallSite{Call: call}
	if sel != nil && recvName != "" {
		if rid, ok := sel.X.(*ast.Ident); ok && rid.Name == recvName {
			site.SameRecv = true
		}
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			// Interface dispatch: every in-module type whose method
			// set implements the interface is a possible target.
			site.Callees = implementers(iface, fn.Name(), byMethodName)
			return site
		}
	}
	if target, ok := g.Nodes[FuncID(fn)]; ok {
		site.Callees = []*FuncNode{target}
	}
	return site
}

// implementers returns the in-module methods named name whose
// receiver type implements iface, in deterministic ID order.
func implementers(iface *types.Interface, name string, byMethodName map[string][]*FuncNode) []*FuncNode {
	var out []*FuncNode
	for _, cand := range byMethodName[name] {
		recv := cand.Obj.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		// Both the value and pointer method sets count; Implements
		// wants the pointer form for pointer-receiver methods.
		if types.Implements(t, iface) || types.Implements(types.NewPointer(deref(t)), iface) {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// posLess orders positions for deterministic reporting.
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}

// trimModule strips the module path prefix from an identity for
// human-readable diagnostics: "tipsy/internal/wan.Table.Lookup" ->
// "wan.Table.Lookup".
func trimModule(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
