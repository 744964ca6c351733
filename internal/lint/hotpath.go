package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is tipsylint's third, performance-oriented tier. The
// correctness tiers ask "can this go wrong"; this one asks "does this
// allocate on the per-record path". Functions carrying a
// //tipsy:hotpath directive are roots; the tier computes the
// call-graph closure of the roots and statically enumerates every
// allocation site inside it — append growth in loops, make/new and
// composite literals in loop bodies, map inserts in loops,
// string<->[]byte conversions, interface boxing at call sites (the
// fmt and slog argument trap), closures that escape (via the
// provenance engine in escape.go), and defer or time.Now inside
// loops. The counts are gated by the committed ratchet file
// .tipsy-allocbudget.json (budget.go): a site count may shrink, never
// grow, so allocation wins are locked in PR over PR.

// HotpathDirective marks a function as a hot-path root. The directive
// goes in the doc comment, machine-readable like //go:noinline:
//
//	//tipsy:hotpath
//	func Decode(buf []byte) ...
const HotpathDirective = "//tipsy:hotpath"

// Allocation-site categories. Each is budgeted independently per
// function.
const (
	// CatAppendLoop: append inside a loop — amortized growth of the
	// backing array on the per-iteration path.
	CatAppendLoop = "append-loop"
	// CatAllocLoop: make, new, or a composite literal inside a loop.
	CatAllocLoop = "alloc-loop"
	// CatMapInsertLoop: a map store inside a loop — bucket growth and
	// key/value copying per iteration.
	CatMapInsertLoop = "map-insert-loop"
	// CatStringConv: a string<->[]byte conversion; both directions
	// copy the bytes.
	CatStringConv = "string-conv"
	// CatBoxing: a concrete non-pointer-shaped value passed to an
	// interface-typed parameter — fmt/slog variadic args are the
	// classic case.
	CatBoxing = "boxing"
	// CatClosure: a function literal whose value escapes the creating
	// function, heap-allocating the closure and its captures.
	CatClosure = "closure-escape"
	// CatDeferLoop: defer inside a loop — a deferred frame per
	// iteration, all held until return.
	CatDeferLoop = "defer-loop"
	// CatTimeLoop: time.Now/time.Since inside a loop — a clock read
	// per item where one per batch would do.
	CatTimeLoop = "time-loop"
)

// AllocSite is one statically identified allocation (or per-iteration
// cost) inside a hot function.
type AllocSite struct {
	Pos      token.Pos
	Category string
	Desc     string
}

// HotFunc is one function in the hot closure.
type HotFunc struct {
	ID    string
	Via   string // the root whose closure reached it; == ID for roots
	Sites []AllocSite
}

// HotReport is the result of the hot-path analysis over a Program.
type HotReport struct {
	Funcs map[string]*HotFunc
	Order []string // IDs sorted, for deterministic iteration
	Roots []string // annotated root IDs, sorted
}

// AnalyzeHotpaths finds the annotated roots, closes over the call
// graph, and scans every hot function for allocation sites.
func AnalyzeHotpaths(prog *Program) *HotReport {
	rep := &HotReport{Funcs: map[string]*HotFunc{}, Roots: hotRoots(prog)}
	for id, root := range hotClosure(prog, rep.Roots) {
		n := prog.Graph.Nodes[id]
		rep.Funcs[id] = &HotFunc{ID: id, Via: root, Sites: scanAllocs(n.Pkg, n.Decl)}
		rep.Order = append(rep.Order, id)
	}
	sort.Strings(rep.Order)
	return rep
}

// Counts folds the report into per-function, per-category site
// counts, dropping allocation-free functions — the shape the budget
// file persists.
func (r *HotReport) Counts() map[string]map[string]int {
	out := map[string]map[string]int{}
	for id, hf := range r.Funcs {
		if len(hf.Sites) == 0 {
			continue
		}
		m := map[string]int{}
		for _, s := range hf.Sites {
			m[s.Category]++
		}
		out[id] = m
	}
	return out
}

// hotRoots returns the IDs of functions annotated //tipsy:hotpath,
// sorted (Graph.Order is).
func hotRoots(prog *Program) []string {
	var roots []string
	for _, id := range prog.Graph.Order {
		n := prog.Graph.Nodes[id]
		if n.Decl.Doc == nil || inTestFile(n) {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
				roots = append(roots, id)
				break
			}
		}
	}
	return roots
}

// hotClosure computes the set of functions reachable from the roots
// over the call graph, mapping each to the first root (in sorted
// order) that reaches it. Interface call sites contribute every
// in-module implementer, so dynamic dispatch on the hot path keeps
// all its targets hot — except functions declared in _test.go files:
// a test's fake that happens to implement a hot interface is not
// shipped code, and budgeting it would ratchet the test suite.
func hotClosure(prog *Program, roots []string) map[string]string {
	via := map[string]string{}
	for _, root := range roots {
		if _, seen := via[root]; seen {
			continue // already inside an earlier root's closure
		}
		via[root] = root
		queue := []string{root}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, site := range prog.Graph.Nodes[id].Sites {
				for _, callee := range site.Callees {
					if _, seen := via[callee.ID]; !seen && !inTestFile(callee) {
						via[callee.ID] = root
						queue = append(queue, callee.ID)
					}
				}
			}
		}
	}
	return via
}

func inTestFile(n *FuncNode) bool { return n.Pkg.IsTestFile(n.Decl.Pos()) }

// allocScanner walks one hot function body (function literals
// included) tracking whether each expression executes inside a loop.
type allocScanner struct {
	pkg     *Package
	escaped map[token.Pos]bool // escaping closures, by literal position
	sites   []AllocSite
	// compEnd suppresses double counting of nested composite literals:
	// &Msg{Hdr: Hdr{...}} is one allocation, not two.
	compEnd token.Pos
	lits    []litCtx // function literals pending their own walk
}

// litCtx queues a function literal body with the loop context of the
// point where the literal appears: a closure created inside a loop
// allocates per iteration, and so does everything in its body.
type litCtx struct {
	lit    *ast.FuncLit
	inLoop bool
}

// scanAllocs enumerates the allocation sites of one declared
// function, sorted by position.
func scanAllocs(pkg *Package, fd *ast.FuncDecl) []AllocSite {
	if fd.Body == nil {
		return nil
	}
	sc := &allocScanner{pkg: pkg, escaped: escapingClosures(pkg, fd)}
	sc.walkStmt(fd.Body, false)
	for len(sc.lits) > 0 {
		w := sc.lits[0]
		sc.lits = sc.lits[1:]
		sc.walkStmt(w.lit.Body, w.inLoop)
	}
	sort.Slice(sc.sites, func(i, j int) bool { return sc.sites[i].Pos < sc.sites[j].Pos })
	return sc.sites
}

func (sc *allocScanner) add(pos token.Pos, category, desc string) {
	sc.sites = append(sc.sites, AllocSite{Pos: pos, Category: category, Desc: desc})
}

// walkStmt dispatches on statement structure, threading the loop
// context: for/range bodies (and for conditions/posts, evaluated per
// iteration) are in-loop; a range operand or for-init is evaluated
// once and keeps the enclosing context.
func (sc *allocScanner) walkStmt(s ast.Stmt, inLoop bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			sc.walkStmt(t, inLoop)
		}
	case *ast.IfStmt:
		sc.walkStmt(s.Init, inLoop)
		sc.scanExpr(s.Cond, inLoop)
		sc.walkStmt(s.Body, inLoop)
		sc.walkStmt(s.Else, inLoop)
	case *ast.ForStmt:
		sc.walkStmt(s.Init, inLoop)
		sc.scanExpr(s.Cond, true)
		sc.walkStmt(s.Post, true)
		sc.walkStmt(s.Body, true)
	case *ast.RangeStmt:
		sc.scanExpr(s.X, inLoop)
		sc.walkStmt(s.Body, true)
	case *ast.SwitchStmt:
		sc.walkStmt(s.Init, inLoop)
		sc.scanExpr(s.Tag, inLoop)
		sc.walkStmt(s.Body, inLoop)
	case *ast.TypeSwitchStmt:
		sc.walkStmt(s.Init, inLoop)
		sc.walkStmt(s.Assign, inLoop)
		sc.walkStmt(s.Body, inLoop)
	case *ast.SelectStmt:
		sc.walkStmt(s.Body, inLoop)
	case *ast.CaseClause:
		for _, e := range s.List {
			sc.scanExpr(e, inLoop)
		}
		for _, t := range s.Body {
			sc.walkStmt(t, inLoop)
		}
	case *ast.CommClause:
		sc.walkStmt(s.Comm, inLoop)
		for _, t := range s.Body {
			sc.walkStmt(t, inLoop)
		}
	case *ast.LabeledStmt:
		sc.walkStmt(s.Stmt, inLoop)
	case *ast.DeferStmt:
		if inLoop {
			sc.add(s.Pos(), CatDeferLoop, "defer inside a loop pushes a deferred frame per iteration")
		}
		sc.scanExpr(s.Call, inLoop)
	case *ast.GoStmt:
		sc.scanExpr(s.Call, inLoop)
	case *ast.AssignStmt:
		if inLoop {
			for _, lhs := range s.Lhs {
				sc.checkMapStore(ast.Unparen(lhs))
			}
		}
		for _, e := range s.Lhs {
			sc.scanExpr(e, inLoop)
		}
		for _, e := range s.Rhs {
			sc.scanExpr(e, inLoop)
		}
	case *ast.IncDecStmt:
		if inLoop {
			sc.checkMapStore(ast.Unparen(s.X))
		}
		sc.scanExpr(s.X, inLoop)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					sc.scanExpr(v, inLoop)
				}
			}
		}
	case *ast.ExprStmt:
		sc.scanExpr(s.X, inLoop)
	case *ast.SendStmt:
		sc.scanExpr(s.Chan, inLoop)
		sc.scanExpr(s.Value, inLoop)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sc.scanExpr(e, inLoop)
		}
	}
}

// checkMapStore flags m[k] = v / m[k] += v / m[k]++ when m is a map.
func (sc *allocScanner) checkMapStore(lhs ast.Expr) {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	t := sc.pkg.Info.TypeOf(ix.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		sc.add(ix.Pos(), CatMapInsertLoop, "map store inside a loop grows buckets and copies the key per iteration")
	}
}

// scanExpr inspects one expression tree for allocation sites.
// Function literals are queued, not descended: their bodies get their
// own walk with the literal's loop context.
func (sc *allocScanner) scanExpr(e ast.Expr, inLoop bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.lits = append(sc.lits, litCtx{n, inLoop})
			if sc.escaped[n.Pos()] {
				sc.add(n.Pos(), CatClosure, "closure escapes its creating function; the closure and its captures are heap-allocated")
			}
			return false
		case *ast.CompositeLit:
			if inLoop && n.Pos() >= sc.compEnd {
				sc.compEnd = n.End()
				sc.add(n.Pos(), CatAllocLoop, "composite literal inside a loop")
			}
		case *ast.CallExpr:
			sc.scanCall(n, inLoop)
		}
		return true
	})
}

// scanCall classifies one call: conversion, builtin, clock read, or a
// real call whose arguments may box into interface parameters.
func (sc *allocScanner) scanCall(call *ast.CallExpr, inLoop bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := sc.pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			sc.checkStringConv(call, tv.Type)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := sc.pkg.Info.Uses[id].(*types.Builtin); ok {
			if !inLoop {
				return
			}
			switch b.Name() {
			case "append":
				sc.add(call.Pos(), CatAppendLoop, "append inside a loop can grow the backing array per iteration")
			case "make":
				sc.add(call.Pos(), CatAllocLoop, "make inside a loop")
			case "new":
				sc.add(call.Pos(), CatAllocLoop, "new inside a loop")
			}
			return
		}
	}
	if fn := calleeFunc(sc.pkg, call); fn != nil && fn.Pkg() != nil {
		if inLoop && fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
			sc.add(call.Pos(), CatTimeLoop,
				"time."+fn.Name()+" inside a loop; hoist the clock read out of the per-item path")
		}
	}
	if sig, ok := sc.pkg.Info.TypeOf(fun).(*types.Signature); ok {
		sc.checkBoxing(call, sig)
	}
}

// checkBoxing flags arguments whose concrete, non-pointer-shaped
// static type meets an interface-typed parameter: the value is copied
// to the heap to build the interface word pair. Pointer-shaped values
// (pointers, maps, channels, funcs) and values already held in
// interfaces convert for free.
func (sc *allocScanner) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				return // xs... spreads an existing slice; nothing boxes
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			return
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := sc.pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		sc.add(arg.Pos(), CatBoxing, "argument boxes into an interface parameter, copying the value to the heap")
	}
}

// pointerShaped reports whether values of t fit in one pointer word
// and so convert to an interface without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkStringConv flags string([]byte) and []byte(string): both copy.
func (sc *allocScanner) checkStringConv(call *ast.CallExpr, target types.Type) {
	src := sc.pkg.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isStringType(target) && isByteSlice(src):
		sc.add(call.Pos(), CatStringConv, "string([]byte) conversion copies the bytes")
	case isByteSlice(target) && isStringType(src):
		sc.add(call.Pos(), CatStringConv, "[]byte(string) conversion copies the bytes")
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkHotpath is the rule entry point registered by Rules: it runs
// the analysis and reports every site of a (function, category) pair
// whose observed count exceeds the committed budget. The budget path
// comes from RulesWithBudget; "" resolves to the module root's
// .tipsy-allocbudget.json.
func checkHotpath(prog *Program, report ReportFunc, budgetPath string) {
	rep := AnalyzeHotpaths(prog)
	if budgetPath == "" {
		budgetPath = defaultBudgetPath(prog)
	}
	budget, err := LoadBudget(budgetPath)
	if err != nil {
		// An unreadable budget ratchets from zero; the CLI separately
		// surfaces the load error with exit 2.
		budget = NewBudget()
	}
	for _, id := range rep.Order {
		hf := rep.Funcs[id]
		byCat := map[string][]AllocSite{}
		for _, s := range hf.Sites {
			byCat[s.Category] = append(byCat[s.Category], s)
		}
		cats := make([]string, 0, len(byCat))
		for c := range byCat {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		why := "hotpath root"
		if hf.Via != hf.ID {
			why = "hot via " + trimModule(hf.Via)
		}
		for _, cat := range cats {
			sites := byCat[cat]
			allowed := budget.Get(id, cat)
			if len(sites) <= allowed {
				continue
			}
			for _, s := range sites {
				report(s.Pos, "hot-path allocation in %s (%s): %s [%s: %d site(s), budget %d]; remove the allocation or re-ratchet with -update-budget",
					trimModule(id), why, s.Desc, cat, len(sites), allowed)
			}
		}
	}
}
