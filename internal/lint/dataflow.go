package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the deep tier's forward value-provenance engine. It
// runs a union-merge dataflow over the CFG of one function body,
// tracking for every local variable a set of provenance tags: which
// parameter it derives from, and which function or composite literal
// created it. The escape pass and the locks rule's constructor
// exemption instantiate the engine with hooks that classify calls.

// TagKind classifies one provenance tag.
type TagKind int

const (
	// TagParam: value derives from the function's parameter Index
	// (receiver is index -1).
	TagParam TagKind = iota
	// TagAlloc: value is (or carries) the literal created at Site. The
	// escape pass (escape.go) follows function literals' tags to the
	// points where a closure leaves its creating function; the locks
	// rule tags fresh guarded structs.
	TagAlloc
)

// Tag is one provenance fact. Tags are comparable and used as set
// keys.
type Tag struct {
	Kind  TagKind
	Index int       // TagParam
	Site  token.Pos // TagAlloc: position of the literal
}

// tagSet is a small immutable-by-convention set of tags. The nil set
// means "provably clean".
type tagSet map[Tag]struct{}

func (s tagSet) has(k TagKind) bool {
	for t := range s {
		if t.Kind == k {
			return true
		}
	}
	return false
}

func union(sets ...tagSet) tagSet {
	var out tagSet
	for _, s := range sets {
		for t := range s {
			if out == nil {
				out = tagSet{}
			}
			out[t] = struct{}{}
		}
	}
	return out
}

func singleton(t Tag) tagSet { return tagSet{t: {}} }

// env maps a local variable (or parameter) to its provenance.
type env map[types.Object]tagSet

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// merge unions other into e, reporting whether e changed. Tag sets
// are shared across environments, so the first insertion into an
// entry copies it (copy-on-write).
func (e env) merge(other env) bool {
	changed := false
	for obj, tags := range other {
		cur, copied := e[obj], false
		for t := range tags {
			if _, ok := cur[t]; !ok {
				if !copied {
					fresh := make(tagSet, len(cur)+1)
					for old := range cur {
						fresh[old] = struct{}{}
					}
					cur, copied = fresh, true
				}
				cur[t] = struct{}{}
				changed = true
			}
		}
		if copied {
			e[obj] = cur
		}
	}
	return changed
}

// provHooks parameterizes the engine per rule family.
type provHooks interface {
	// EvalCall returns the provenance of each result of call given
	// the provenance of the receiver (nil for non-methods) and the
	// arguments. A nil slice means "all results clean".
	EvalCall(call *ast.CallExpr, recv tagSet, args []tagSet) []tagSet
	// RangeTags returns the tags bound to the key and value variables
	// of rs. xTags is the provenance of the ranged operand.
	RangeTags(rs *ast.RangeStmt, xTags tagSet) (key, val tagSet)
}

// funcLitTagger is an optional provHooks extension: hooks implementing
// it assign provenance to function-literal values themselves (not just
// to calls), so a closure stored in a local keeps an identity tag the
// engine can follow to wherever the value flows.
type funcLitTagger interface {
	FuncLitTags(lit *ast.FuncLit) tagSet
}

// compositeLitTagger is the analogous extension for composite
// literals: hooks implementing it assign provenance to the literal
// value itself. A non-nil result replaces the tags the elements would
// contribute — the hook is asserting the literal's identity, and a
// tagged value stored inside a fresh struct says nothing about the
// struct itself. A nil result falls through to the element union. The
// locks rule uses it to tag freshly allocated guarded structs, so
// field stores in constructor bodies are recognizable as
// pre-publication initialization.
type compositeLitTagger interface {
	CompositeLitTags(lit *ast.CompositeLit) tagSet
}

// provenance runs the engine over one declared function and then
// replays the statements in CFG order, calling visit with the
// environment in force immediately BEFORE each statement executes.
type provenance struct {
	pkg   *Package
	hooks provHooks
	cfg   *CFG
	in    []env // per block index
}

// analyzeFunc builds the fixpoint for fd's body. Function literals
// are separate scopes and are not descended into; analyze them with
// analyzeFuncLit, seeding the captured environment.
func analyzeFunc(pkg *Package, fd *ast.FuncDecl, hooks provHooks) *provenance {
	entry := env{}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		for _, name := range fd.Recv.List[0].Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				entry[obj] = singleton(Tag{Kind: TagParam, Index: -1})
			}
		}
	}
	bindParams(pkg, fd.Type, entry)
	return analyzeBody(pkg, fd.Body, entry, hooks)
}

// analyzeFuncLit analyzes a closure body: captured holds the
// environment in force where the literal appears, so free variables
// keep the provenance they had at capture time.
func analyzeFuncLit(pkg *Package, lit *ast.FuncLit, captured env, hooks provHooks) *provenance {
	entry := captured.clone()
	bindParams(pkg, lit.Type, entry)
	return analyzeBody(pkg, lit.Body, entry, hooks)
}

func bindParams(pkg *Package, ftype *ast.FuncType, entry env) {
	idx := 0
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				entry[obj] = singleton(Tag{Kind: TagParam, Index: idx})
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
}

func analyzeBody(pkg *Package, body *ast.BlockStmt, entry env, hooks provHooks) *provenance {
	pv := &provenance{pkg: pkg, hooks: hooks, cfg: BuildCFG(body)}
	pv.in = make([]env, len(pv.cfg.Blocks))
	pv.in[pv.cfg.Entry.Index] = entry

	order := pv.cfg.RPO()
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, b := range order {
			e := pv.in[b.Index]
			if e == nil {
				continue // unreachable so far
			}
			out := e.clone()
			for _, s := range b.Stmts {
				pv.apply(s, out)
			}
			for _, succ := range b.Succs {
				if pv.in[succ.Index] == nil {
					pv.in[succ.Index] = out.clone()
					changed = true
				} else if pv.in[succ.Index].merge(out) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return pv
}

// visit replays every reachable statement once in block order,
// handing the callback the pre-statement environment.
func (pv *provenance) visit(f func(s ast.Stmt, e env)) {
	for _, b := range pv.cfg.Blocks {
		e := pv.in[b.Index]
		if e == nil {
			continue
		}
		cur := e.clone()
		for _, s := range b.Stmts {
			f(s, cur)
			pv.apply(s, cur)
		}
	}
}

// apply is the transfer function of one statement.
func (pv *provenance) apply(s ast.Stmt, e env) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		pv.applyAssign(s, e)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := pv.pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if i < len(vs.Values) {
					e[obj] = pv.eval(vs.Values[i], e)
				} else {
					delete(e, obj)
				}
			}
		}
	case *ast.RangeStmt:
		keyTags, valTags := pv.hooks.RangeTags(s, pv.eval(s.X, e))
		bind := func(expr ast.Expr, tags tagSet) {
			id, ok := expr.(*ast.Ident)
			if !ok {
				return
			}
			obj := pv.pkg.Info.Defs[id]
			if obj == nil {
				obj = pv.pkg.Info.Uses[id]
			}
			if obj != nil {
				e[obj] = tags
			}
		}
		if s.Key != nil {
			bind(s.Key, keyTags)
		}
		if s.Value != nil {
			bind(s.Value, valTags)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			pv.apply(s.Init, e)
		}
		pv.eval(s.Cond, e)
	case *ast.ForStmt:
		if s.Init != nil {
			pv.apply(s.Init, e)
		}
		if s.Post != nil {
			pv.apply(s.Post, e)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			pv.apply(s.Init, e)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			pv.apply(s.Init, e)
		}
		pv.apply(s.Assign, e)
	case *ast.ExprStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt:
		// No local rebinding. (Pointer-mediated mutation through
		// calls is out of model.)
	}
}

func (pv *provenance) applyAssign(s *ast.AssignStmt, e env) {
	// Multi-value RHS: a call, map index, or type assertion fanning
	// out into several LHS targets.
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		var results []tagSet
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			results = pv.evalCallResults(call, e, len(s.Lhs))
		} else {
			shared := pv.eval(s.Rhs[0], e)
			results = make([]tagSet, len(s.Lhs))
			for i := range results {
				results[i] = shared
			}
		}
		for i, lhs := range s.Lhs {
			pv.assignTo(lhs, results[i], s.Tok, e)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		pv.assignTo(lhs, pv.eval(s.Rhs[i], e), s.Tok, e)
	}
}

func (pv *provenance) assignTo(lhs ast.Expr, tags tagSet, tok token.Token, e env) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := pv.pkg.Info.Defs[lhs]
		if obj == nil {
			obj = pv.pkg.Info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if tok == token.DEFINE || tok == token.ASSIGN {
			e[obj] = tags
		} else {
			e[obj] = union(e[obj], tags) // +=, |=, ...
		}
	case *ast.SelectorExpr:
		// x.f = v: track by the field object. Different instances of
		// the same struct alias onto one entry — a sound
		// over-approximation for taint.
		if obj := pv.fieldObj(lhs); obj != nil {
			if tok == token.DEFINE || tok == token.ASSIGN {
				e[obj] = tags
			} else {
				e[obj] = union(e[obj], tags)
			}
		}
	case *ast.IndexExpr:
		// s[i] = v: a weak update — the container accumulates the
		// element's provenance.
		if obj := pv.lvalueObj(lhs.X); obj != nil {
			e[obj] = union(e[obj], tags)
		}
	}
}

// fieldObj resolves x.f to the field's *types.Var, or nil for
// package selectors and methods.
func (pv *provenance) fieldObj(sel *ast.SelectorExpr) types.Object {
	if v, ok := pv.pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// lvalueObj resolves the container expression of an indexed store:
// a plain identifier or a field selector.
func (pv *provenance) lvalueObj(x ast.Expr) types.Object {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj := pv.pkg.Info.Uses[x]; obj != nil {
			return obj
		}
		return pv.pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		return pv.fieldObj(x)
	}
	return nil
}

// eval computes the provenance of one expression.
func (pv *provenance) eval(expr ast.Expr, e env) tagSet {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pv.pkg.Info.Uses[x]
		if obj == nil {
			obj = pv.pkg.Info.Defs[x]
		}
		if obj == nil {
			return nil
		}
		return e[obj]
	case *ast.BasicLit:
		return nil
	case *ast.FuncLit:
		if lt, ok := pv.hooks.(funcLitTagger); ok {
			return lt.FuncLitTags(x)
		}
		return nil
	case *ast.BinaryExpr:
		return union(pv.eval(x.X, e), pv.eval(x.Y, e))
	case *ast.UnaryExpr:
		return pv.eval(x.X, e)
	case *ast.StarExpr:
		return pv.eval(x.X, e)
	case *ast.SelectorExpr:
		// Field read: the tracked field entry if one exists, else the
		// provenance of the base — a struct built from a tainted
		// value stays tainted, a field of a parameter stays
		// parameter-derived.
		if obj := pv.fieldObj(x); obj != nil {
			if tags, ok := e[obj]; ok {
				return tags
			}
		}
		return pv.eval(x.X, e)
	case *ast.IndexExpr:
		return union(pv.eval(x.X, e), pv.eval(x.Index, e))
	case *ast.SliceExpr:
		return pv.eval(x.X, e)
	case *ast.TypeAssertExpr:
		return pv.eval(x.X, e)
	case *ast.CompositeLit:
		if ct, ok := pv.hooks.(compositeLitTagger); ok {
			if tags := ct.CompositeLitTags(x); tags != nil {
				// The hook asserts the literal's own identity; element
				// provenance does not dilute it (a parameter stored in
				// a fresh struct does not make the struct shared).
				return tags
			}
		}
		var parts []tagSet
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				parts = append(parts, pv.eval(kv.Value, e))
				continue
			}
			parts = append(parts, pv.eval(el, e))
		}
		return union(parts...)
	case *ast.CallExpr:
		rs := pv.evalCallResults(x, e, 1)
		return rs[0]
	}
	return nil
}

// evalCallResults handles conversions, builtins, and real calls,
// returning want provenance sets (padded with nil).
func (pv *provenance) evalCallResults(call *ast.CallExpr, e env, want int) []tagSet {
	pad := func(first tagSet) []tagSet {
		out := make([]tagSet, want)
		if want > 0 {
			out[0] = first
		}
		return out
	}
	fun := ast.Unparen(call.Fun)
	if tv, ok := pv.pkg.Info.Types[fun]; ok && tv.IsType() {
		// Type conversion: pass-through.
		var parts []tagSet
		for _, a := range call.Args {
			parts = append(parts, pv.eval(a, e))
		}
		return pad(union(parts...))
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pv.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new", "clear", "delete", "panic", "print", "println":
				return pad(nil)
			default:
				var parts []tagSet
				for _, a := range call.Args {
					parts = append(parts, pv.eval(a, e))
				}
				return pad(union(parts...))
			}
		}
	}
	args := make([]tagSet, len(call.Args))
	for i, a := range call.Args {
		args[i] = pv.eval(a, e)
	}
	var recvTags tagSet
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := pv.pkg.Info.Uses[sel.Sel].(*types.Func); ok {
			if fn.Type().(*types.Signature).Recv() != nil {
				recvTags = pv.eval(sel.X, e)
			}
		}
	}
	results := pv.hooks.EvalCall(call, recvTags, args)
	out := make([]tagSet, want)
	for i := 0; i < want && i < len(results); i++ {
		out[i] = results[i]
	}
	return out
}

// inspectShallow walks the parts of s the CFG evaluates AT s —
// everything except nested statement bodies, which live in their own
// blocks and are visited with their own environments. Function
// literals are pruned too (separate scopes), but f sees the literal
// node itself so callers can schedule a closure analysis.
func inspectShallow(s ast.Stmt, f func(ast.Node) bool) {
	walk := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return f(n) && false // show the literal, skip its body
			}
			return f(n)
		})
	}
	switch s := s.(type) {
	case *ast.IfStmt:
		walk(s.Init)
		walk(s.Cond)
	case *ast.ForStmt:
		walk(s.Init)
		walk(s.Cond)
		walk(s.Post)
	case *ast.RangeStmt:
		walk(s.X)
	case *ast.SwitchStmt:
		walk(s.Init)
		walk(s.Tag)
	case *ast.TypeSwitchStmt:
		walk(s.Init)
		walk(s.Assign)
	case *ast.SelectStmt:
		// Clause bodies are their own blocks.
	case *ast.LabeledStmt:
		inspectShallow(s.Stmt, f)
	default:
		walk(s)
	}
}
