package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The locks rule is the module's one lock analysis. It walks each
// function's CFG computing which locks are provably held at each
// point (Lock→Unlock spans, defer mu.Unlock() spanning early returns,
// RLock read-only spans, merged by intersection at joins) and reads
// every finding off that one must-hold state.
//
// Leaks: a return, or the end of the body, reached with a lock the
// scope took still held and no deferred unlock pending.
//
// Lock order: a Lock/RLock, or a call whose callee transitively
// acquires a lock, made while another lock is held is an edge of the
// module-wide acquisition graph. Nodes are (type, mutex field) pairs,
// so a type with several independent mutexes does not self-collide.
// Two locks acquired in both orders are a cycle; a callee that
// re-acquires a lock held on the same receiver self-deadlocks, since
// sync mutexes are not reentrant.
//
// Guards, a GUARDED_BY-style race lint in the spirit of Clang's
// thread-safety annotations: every access to a sibling field of a
// struct carrying a sync.Mutex/RWMutex is classified as inside or
// outside the critical section, and the rule
//
//   - infers a guard when a large majority (≥3:1, at least two locked
//     sites) of a field's accesses hold one particular mutex, and
//     flags the minority that do not;
//   - honours explicit annotations: `//tipsy:guardedby mu` on a field
//     pins the guard regardless of the access ratio, and
//     `//tipsy:nolock <reason>` opts a deliberately lock-free field
//     out (atomics that predate sync/atomic types, set-before-start
//     configuration). The reason is mandatory — a bare nolock is void
//     and reported;
//   - flags writes performed under only an RLock;
//   - treats accesses inside an escaping closure as outside the
//     creating function's critical section (the closure may run after
//     the lock is released — escape.go decides which literals leave);
//   - exempts sync/atomic-typed fields, `&s.f` arguments to
//     sync/atomic calls, self-synchronized field types (sync.*,
//     channels), and constructor bodies — accesses rooted at a local
//     that only ever holds storage the function itself allocated (a
//     guarded composite literal, its address, or a zero `var x T`)
//     are pre-publication initialization;
//   - closes over the call graph: an unexported method whose every
//     in-module call site holds the guard on the same receiver counts
//     as locked at entry, so private fooLocked() helpers do not
//     false-positive.

// Guard annotation directives. Both go in the field's doc or trailing
// line comment inside the struct type declaration:
//
//	mu sync.Mutex
//	//tipsy:guardedby mu
//	counts map[key]uint64
//	//tipsy:nolock set before Start and never written afterwards
//	cfg Config
const (
	GuardedByDirective = "//tipsy:guardedby"
	NolockDirective    = "//tipsy:nolock"
)

// Lock modes, ordered so a write lock subsumes a read lock.
const (
	gbNone = iota
	gbRead
	gbWrite
)

// gbField is one non-mutex field of a guarded struct.
type gbField struct {
	name   string
	pinned string // mutex field named by //tipsy:guardedby; "" = infer
	nolock bool   // //tipsy:nolock with a reason: deliberately lock-free
	exempt bool   // sync/atomic, sync.*, or channel typed: self-synchronized
}

// gbType is one struct with at least one mutex field.
type gbType struct {
	id      string          // stable "pkgpath.Name"
	mutexes map[string]bool // mutex field name -> is RWMutex
	fields  map[string]*gbField
}

// lockID identifies one mutex across the module: the named type
// owning it plus the field, e.g. {"tipsy/internal/obsv.Registry",
// "mu"}. A mutex variable has no owning type: Type is "" and Field is
// the printed expression, enough to check it for leaks but not to
// order it.
type lockID struct {
	Type  string
	Field string
}

func (l lockID) String() string { return trimModule(l.Type) + "." + l.Field }

// lockedMutex matches a sync Lock/RLock/Unlock/RUnlock call (one of
// names), returning the lock's identity, the printed holder
// expression ("" for a mutex variable), and the read flavor.
func lockedMutex(p *Package, call *ast.CallExpr, names ...string) (lockID, string, bool, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !slices.Contains(names, sel.Sel.Name) {
		return lockID{}, "", false, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockID{}, "", false, false
	}
	read := strings.HasPrefix(sel.Sel.Name, "R")
	if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if name := namedTypeID(p.Info.TypeOf(x.X)); name != "" {
			return lockID{Type: name, Field: x.Sel.Name}, types.ExprString(x.X), read, true
		}
	}
	return lockID{Field: types.ExprString(sel.X)}, "", read, true
}

// namedTypeID returns the stable "path.Name" of t's named type,
// looking through pointers, or "".
func namedTypeID(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// heldKey identifies one held lock: the mutex identity plus the
// printed holder expression, so s.mu and other.mu stay distinct. A
// deferred key is the companion entry `defer mu.Unlock()` leaves: a
// return releases that lock whatever happens to it in between.
type heldKey struct {
	typ, field, expr string
	deferred         bool
}

func (k heldKey) String() string {
	if k.expr == "" {
		return k.field
	}
	return k.expr + "." + k.field
}

// lockHeld is one held lock's mode and the Lock/RLock call that took
// it.
type lockHeld struct {
	mode int
	at   token.Pos
}

// lockState maps held locks to their mode at one program point.
type lockState map[heldKey]lockHeld

func cloneLocks(st lockState) lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// intersectLocks narrows dst to the locks held in both states (a lock
// is only "held" at a join if it is held on every incoming path),
// keeping the weaker mode. Reports whether dst changed.
func intersectLocks(dst, src lockState) bool {
	changed := false
	for k, v := range dst {
		sv, ok := src[k]
		if !ok {
			delete(dst, k)
			changed = true
			continue
		}
		if sv.mode < v.mode {
			dst[k] = sv
			changed = true
		}
	}
	return changed
}

// lockEdge is one "held from, acquired to" observation.
type lockEdge struct {
	from, to lockID
	pos      token.Pos // the acquisition or call site
	fn       string    // enclosing function ID
}

// gbAccess is one recorded field access.
type gbAccess struct {
	pos     token.Pos
	typeID  string
	field   string
	write   bool
	held    map[string]int // mutex field -> mode held on this access's base
	fnID    string         // enclosing declared function
	binding string         // receiver/param name the base resolves to, "" otherwise
	inEsc   bool           // inside a closure that escapes its creator
}

// gbObs is one call-site observation of one guarded binding (the
// receiver or a parameter) of an in-module function: which of that
// struct's locks the caller provably held on the argument at the
// call. callerBinding names the caller's own binding when the
// argument is exactly that binding, so entry locks inherit through
// helper chains (applyLocked passing its shard on to joinMiss).
type gbObs struct {
	binding       string
	held          map[string]int
	caller        string
	callerBinding string
}

// gbDiag is a pending diagnostic; emission is sorted for determinism.
type gbDiag struct {
	pos token.Pos
	msg string
}

// gbState carries the analysis across its passes.
type gbState struct {
	prog     *Program
	types    map[string]*gbType
	accesses []*gbAccess
	obs      map[string][]gbObs
	// entry: function ID -> binding name -> locks guaranteed held at
	// entry (the interprocedural closure for fooLocked()-style
	// helpers, via receiver or parameter).
	entry map[string]map[string]map[string]int
	// acquires: function ID -> locks it may take, directly or through
	// in-module calls.
	acquires map[string]map[lockID]bool
	edges    []lockEdge
	diags    []gbDiag
}

func (st *gbState) emit(pos token.Pos, format string, args ...any) {
	st.diags = append(st.diags, gbDiag{pos, fmt.Sprintf(format, args...)})
}

// checkLocks is the rule entry point. Locks are global state, so the
// whole module is analyzed; Run filters findings by scope.
func checkLocks(prog *Program, scope []*Package, report ReportFunc) {
	st := &gbState{prog: prog, obs: map[string][]gbObs{}}
	st.collectTypes()
	st.buildAcquires()
	for _, id := range prog.Graph.Order {
		st.scanFunc(prog.Graph.Nodes[id])
	}
	st.buildEntries()
	st.inferAndFlag()
	st.reportCycles()
	sort.Slice(st.diags, func(i, j int) bool {
		if st.diags[i].pos != st.diags[j].pos {
			return st.diags[i].pos < st.diags[j].pos
		}
		return st.diags[i].msg < st.diags[j].msg
	})
	for _, d := range st.diags {
		report(d.pos, "%s", d.msg)
	}
}

// buildAcquires computes which typed locks each function may take,
// directly or through in-module calls, as a fixpoint over the call
// graph. Direct acquisitions inside function literals do not count: a
// goroutine body has its own life cycle.
func (st *gbState) buildAcquires() {
	st.acquires = map[string]map[lockID]bool{}
	for _, id := range st.prog.Graph.Order {
		n := st.prog.Graph.Nodes[id]
		mine := map[lockID]bool{}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if l, _, _, ok := lockedMutex(n.Pkg, call, "Lock", "RLock"); ok && l.Type != "" {
					mine[l] = true
				}
			}
			return true
		})
		st.acquires[id] = mine
	}
	for changed := true; changed; {
		changed = false
		for _, id := range st.prog.Graph.Order {
			mine := st.acquires[id]
			for _, site := range st.prog.Graph.Nodes[id].Sites {
				for _, callee := range site.Callees {
					for l := range st.acquires[callee.ID] {
						if !mine[l] {
							mine[l] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// reportCycles flags each pair of locks acquired in both orders, at
// the earlier of the two first-seen edges.
func (st *gbState) reportCycles() {
	first := map[[2]lockID]lockEdge{}
	for _, e := range st.edges {
		if _, ok := first[[2]lockID{e.from, e.to}]; !ok {
			first[[2]lockID{e.from, e.to}] = e
		}
	}
	fset := st.prog.Fset
	for pair, e := range first {
		rev, ok := first[[2]lockID{pair[1], pair[0]}]
		if !ok || posLess(fset, rev.pos, e.pos) {
			continue
		}
		p := fset.Position(rev.pos)
		st.emit(e.pos,
			"lock order cycle: %s holds %s while acquiring %s, but %s (at %s:%d) holds %s while acquiring %s; acquire these locks in one global order",
			trimModule(e.fn), e.from, e.to, trimModule(rev.fn), filepath.Base(p.Filename), p.Line, rev.from, rev.to)
	}
}

// mutexTypeName returns "Mutex"/"RWMutex" when t is the sync type,
// looking through one pointer, else "".
func mutexTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch namedTypeID(t) {
	case "sync.Mutex":
		return "Mutex"
	case "sync.RWMutex":
		return "RWMutex"
	}
	return ""
}

// selfSyncedType reports whether values of t synchronize themselves:
// sync/atomic types, the other sync package primitives (WaitGroup,
// Once, Map, Cond, Pool), and channels.
func selfSyncedType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync/atomic" || pkg.Path() == "sync"
}

// collectTypes indexes every mutex-bearing struct declared in a
// non-test file, parsing the per-field directives, and reports
// malformed directives.
func (st *gbState) collectTypes() {
	st.types = map[string]*gbType{}
	for _, p := range st.prog.Pkgs {
		for _, f := range p.Files {
			if p.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					stru, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					st.collectStruct(p, ts, stru)
				}
			}
		}
	}
}

func (st *gbState) collectStruct(p *Package, ts *ast.TypeSpec, stru *ast.StructType) {
	obj := p.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	id := namedTypeID(obj.Type())
	if id == "" {
		return
	}
	gt := &gbType{id: id, mutexes: map[string]bool{}, fields: map[string]*gbField{}}
	type pendingDirective struct {
		pos    token.Pos
		field  string
		guard  string // for guardedby; "" for nolock
		nolock bool
		reason string
	}
	var directives []pendingDirective
	for _, field := range stru.Fields.List {
		if len(field.Names) == 0 {
			continue // embedded: cannot be annotated, promoted accesses are skipped
		}
		var comments []*ast.Comment
		if field.Doc != nil {
			comments = append(comments, field.Doc.List...)
		}
		if field.Comment != nil {
			comments = append(comments, field.Comment.List...)
		}
		var pinned, reason string
		var pinnedPos, nolockPos token.Pos
		nolock := false
		for _, c := range comments {
			if rest, ok := strings.CutPrefix(c.Text, GuardedByDirective); ok && (rest == "" || rest[0] == ' ') {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					pinned = fields[0]
				}
				pinnedPos = c.Pos()
			}
			if rest, ok := strings.CutPrefix(c.Text, NolockDirective); ok && (rest == "" || rest[0] == ' ') {
				nolock = true
				reason = strings.TrimSpace(rest)
				nolockPos = c.Pos()
			}
		}
		for _, name := range field.Names {
			v, ok := p.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if mutexTypeName(v.Type()) != "" {
				gt.mutexes[name.Name] = mutexTypeName(v.Type()) == "RWMutex"
				continue
			}
			gf := &gbField{name: name.Name, exempt: selfSyncedType(v.Type())}
			if pinned != "" || pinnedPos != token.NoPos {
				directives = append(directives, pendingDirective{pos: pinnedPos, field: name.Name, guard: pinned})
				gf.pinned = pinned
			}
			if nolock {
				if reason == "" {
					directives = append(directives, pendingDirective{pos: nolockPos, field: name.Name, nolock: true})
				} else {
					gf.nolock = true
				}
			}
			gt.fields[name.Name] = gf
		}
	}
	if len(gt.mutexes) == 0 {
		// Not a guarded struct; a guardedby directive here is a mistake.
		for _, d := range directives {
			if !d.nolock {
				st.emit(d.pos, "%s on %s.%s: %s has no mutex field",
					GuardedByDirective, trimModule(id), d.field, trimModule(id))
			}
		}
		return
	}
	for _, d := range directives {
		switch {
		case d.nolock:
			st.emit(d.pos, "%s on %s.%s needs a reason; a bare directive is void — say why lock-free access is safe",
				NolockDirective, trimModule(id), d.field)
		case d.guard == "":
			st.emit(d.pos, "%s on %s.%s needs the guarding mutex field name",
				GuardedByDirective, trimModule(id), d.field)
		case !gt.mutexes[d.guard] && gt.mutexes[d.guard] == false:
			if _, ok := gt.mutexes[d.guard]; !ok {
				st.emit(d.pos, "%s on %s.%s names no mutex field %q in %s",
					GuardedByDirective, trimModule(id), d.field, d.guard, trimModule(id))
				gt.fields[d.field].pinned = ""
			}
		}
	}
	st.types[id] = gt
}

// containsGuarded reports whether t is a guarded struct or embeds one
// by value (struct field, array element) — fresh storage for the
// outer value is fresh storage for the guarded struct inside it.
func (st *gbState) containsGuarded(t types.Type, depth int) bool {
	if t == nil || depth > 4 {
		return false
	}
	if st.types[namedTypeID(t)] != nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if st.containsGuarded(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return st.containsGuarded(u.Elem(), depth+1)
	}
	return false
}

// mentionsGuarded is the cheap prefilter: only bodies that select on a
// guarded type (field access, method call, or mu.Lock itself) or call
// Lock/RLock on any mutex pay for the full analysis.
func (st *gbState) mentionsGuarded(n *FuncNode) bool {
	found := false
	guarded := func(x ast.Expr) bool {
		t := n.Pkg.Info.TypeOf(x)
		return t != nil && st.types[namedTypeID(t)] != nil
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		switch x := node.(type) {
		case *ast.SelectorExpr:
			found = guarded(x.X)
		case *ast.Ident:
			// A bare guarded binding matters too: a function whose only
			// involvement is forwarding a locked struct to a helper
			// still feeds the interprocedural entry-lock fixpoint.
			found = guarded(x)
		case *ast.CallExpr:
			_, _, _, found = lockedMutex(n.Pkg, x, "Lock", "RLock")
		}
		return !found
	})
	return found
}

// freshLocals collects the locals of fd that only ever hold storage
// fd itself allocated. A local is fresh when every binding of it
// anywhere in the body, closures included, is a composite literal
// containing a guarded struct, that literal's address, or the zero
// value of `var x T` with T guarded. Parameters, results, range
// variables and multi-value bindings are never fresh.
func (st *gbState) freshLocals(p *Package, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	bind := func(lhs ast.Expr, allocated bool) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil {
				prev, seen := fresh[obj]
				fresh[obj] = allocated && (prev || !seen)
			}
		}
	}
	allocates := func(x ast.Expr) bool {
		if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.AND {
			x = u.X
		}
		lit, ok := ast.Unparen(x).(*ast.CompositeLit)
		return ok && st.containsGuarded(p.Info.TypeOf(lit), 0)
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				bind(name, false)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				bind(lhs, len(n.Lhs) == len(n.Rhs) && allocates(n.Rhs[i]))
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if len(n.Values) == 0 {
					bind(name, st.containsGuarded(p.Info.TypeOf(name), 0))
				} else {
					bind(name, len(n.Values) == len(n.Names) && allocates(n.Values[i]))
				}
			}
		case *ast.RangeStmt:
			bind(n.Key, false)
			bind(n.Value, false)
		}
		return true
	})
	return fresh
}

// rootObj returns the variable at the root of x's selector, index and
// dereference chain — r in r.shards[i].buf — or nil.
func rootObj(p *Package, x ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.Ident:
			return p.Info.ObjectOf(e)
		default:
			return nil
		}
	}
}

// gbWalk carries the per-function scan state.
type gbWalk struct {
	st   *gbState
	pkg  *Package
	fnID string
	// bindings maps the declared function's receiver and parameter
	// objects of guarded type to their identifier names — the units
	// the interprocedural entry-lock fixpoint reasons about.
	bindings map[types.Object]string
	esc      map[token.Pos]bool
	fresh    map[types.Object]bool
	recvName string
	sites    map[*ast.CallExpr]*CallSite
	leaked   map[token.Pos]bool // Lock calls already reported as leaking

	// Per-scope (reset for each closure body):
	inEsc   bool
	handled map[*ast.SelectorExpr]bool
	atomics map[ast.Expr]bool // &x.f args of sync/atomic calls
	// syncLits are function literals passed to callees known to
	// invoke them synchronously (sort.Slice comparators and the
	// like): they run inside the caller's critical section, so the
	// escape pass's "passed = escaped" verdict does not apply.
	syncLits map[*ast.FuncLit]bool
	lits     []gbLitWork
}

type gbLitWork struct {
	lit   *ast.FuncLit
	locks lockState
	inEsc bool
}

// scanFunc analyzes one declared function: fresh locals for the
// constructor exemption, escape analysis for its closures, and the
// lock-state walk that records accesses and call observations.
func (st *gbState) scanFunc(n *FuncNode) {
	if n.Pkg.IsTestFile(n.Decl.Pos()) {
		return
	}
	if !st.mentionsGuarded(n) {
		return
	}
	w := &gbWalk{
		st:       st,
		pkg:      n.Pkg,
		fnID:     n.ID,
		bindings: st.guardedBindings(n),
		fresh:    st.freshLocals(n.Pkg, n.Decl),
		esc:      escapingClosures(n.Pkg, n.Decl),
		recvName: receiverIdent(n.Decl),
		sites:    map[*ast.CallExpr]*CallSite{},
		leaked:   map[token.Pos]bool{},
	}
	for _, s := range n.Sites {
		w.sites[s.Call] = s
	}
	w.scanScope(n.Decl.Body, lockState{}, false)
	for len(w.lits) > 0 {
		work := w.lits[0]
		w.lits = w.lits[1:]
		w.scanScope(work.lit.Body, work.locks, work.inEsc)
	}
}

// guardedBindings maps n's receiver and parameter objects whose type
// is (a pointer to) a guarded struct to their identifier names.
func (st *gbState) guardedBindings(n *FuncNode) map[types.Object]string {
	out := map[types.Object]string{}
	add := func(names []*ast.Ident) {
		for _, name := range names {
			obj := n.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if st.types[namedTypeID(obj.Type())] != nil {
				out[obj] = name.Name
			}
		}
	}
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
		add(n.Decl.Recv.List[0].Names)
	}
	for _, field := range n.Decl.Type.Params.List {
		add(field.Names)
	}
	return out
}

// scanScope runs the lock-state dataflow over one body (a declared
// function or a closure) and replays it, recording accesses and
// lock-order edges with the state in force at each statement and
// checking for leaks wherever control leaves the body.
func (w *gbWalk) scanScope(body *ast.BlockStmt, entry lockState, inEsc bool) {
	w.inEsc = inEsc
	w.handled = map[*ast.SelectorExpr]bool{}
	w.atomics = map[ast.Expr]bool{}
	w.syncLits = map[*ast.FuncLit]bool{}

	cfg := BuildCFG(body)
	in := make([]lockState, len(cfg.Blocks))
	in[cfg.Entry.Index] = cloneLocks(entry)
	order := cfg.RPO()
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, b := range order {
			e := in[b.Index]
			if e == nil {
				continue
			}
			out := cloneLocks(e)
			for _, s := range b.Stmts {
				w.transfer(s, out, false)
			}
			for _, succ := range b.Succs {
				if in[succ.Index] == nil {
					in[succ.Index] = cloneLocks(out)
					changed = true
				} else if intersectLocks(in[succ.Index], out) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Replay: record each statement with the lock state immediately
	// before it.
	for _, b := range cfg.Blocks {
		e := in[b.Index]
		if e == nil {
			continue
		}
		cur := cloneLocks(e)
		for _, s := range b.Stmts {
			w.record(s, cur)
			w.transfer(s, cur, true)
		}
		// Control leaves the body after a return or at its end; a
		// goto or unresolved branch also edges to Exit but leaves
		// nothing.
		if slices.Contains(b.Succs, cfg.Exit) {
			var last ast.Stmt
			if len(b.Stmts) > 0 {
				last = b.Stmts[len(b.Stmts)-1]
			}
			if _, jump := last.(*ast.BranchStmt); !jump {
				w.leaks(cur, entry, last)
			}
		}
	}
}

// transfer applies one statement's lock acquisitions and releases. A
// deferred unlock leaves the lock held through every later statement
// and early return; it only adds the deferred key that tells the leak
// check a return releases it. On the replay, every acquisition and
// every in-module call made with locks held also feeds the lock-order
// graph.
func (w *gbWalk) transfer(s ast.Stmt, st lockState, replay bool) {
	var deferred *ast.CallExpr
	inspectShallow(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred = n.Call
			if id, expr, _, ok := lockedMutex(w.pkg, n.Call, "Unlock", "RUnlock"); ok {
				st[heldKey{id.Type, id.Field, expr, true}] = lockHeld{}
			}
		case *ast.CallExpr:
			if n == deferred {
				return true
			}
			if id, expr, read, ok := lockedMutex(w.pkg, n, "Lock", "RLock"); ok {
				if replay {
					w.lockOrder(st, id, n, nil)
				}
				mode := gbWrite
				if read {
					mode = gbRead
				}
				st[heldKey{id.Type, id.Field, expr, false}] = lockHeld{mode, n.Pos()}
			} else if id, expr, _, ok := lockedMutex(w.pkg, n, "Unlock", "RUnlock"); ok {
				delete(st, heldKey{id.Type, id.Field, expr, false})
			} else if site := w.sites[n]; replay && site != nil && len(st) > 0 {
				for _, callee := range site.Callees {
					for l := range w.st.acquires[callee.ID] {
						w.lockOrder(st, l, n, callee)
					}
				}
			}
		}
		return true
	})
}

// lockOrder files an edge from every typed lock held in st to lock to,
// which call acquires — itself, or through callee. A callee that
// re-acquires a lock held on the caller's own receiver self-deadlocks.
func (w *gbWalk) lockOrder(st lockState, to lockID, call *ast.CallExpr, callee *FuncNode) {
	if to.Type == "" {
		return
	}
	for k := range st {
		from := lockID{k.typ, k.field}
		switch {
		case k.deferred || k.typ == "":
		case from != to:
			w.st.edges = append(w.st.edges, lockEdge{from, to, call.Pos(), w.fnID})
		case callee != nil && w.sites[call].SameRecv && w.recvName != "" && k.expr == w.recvName:
			w.st.emit(call.Pos(),
				"calling %s while %s is held; the callee (re)acquires %s and sync mutexes are not reentrant — this self-deadlocks",
				trimModule(callee.ID), k, to)
		}
	}
}

// leaks flags each lock this scope took that is still held, with no
// deferred unlock pending, where control leaves through last: a
// return statement, or anything else at the end of the body.
func (w *gbWalk) leaks(st, entry lockState, last ast.Stmt) {
	for k, h := range st {
		_, inherited := entry[k]
		_, released := st[heldKey{k.typ, k.field, k.expr, true}]
		if k.deferred || inherited || released || w.leaked[h.at] {
			continue
		}
		w.leaked[h.at] = true
		lock, unlock := "Lock", "Unlock"
		if h.mode == gbRead {
			lock, unlock = "RLock", "RUnlock"
		}
		if ret, ok := last.(*ast.ReturnStmt); ok {
			w.st.emit(h.at, "%s.%s() can reach the return at line %d still held; release with defer %s.%s()",
				k, lock, w.pkg.Fset.Position(ret.Pos()).Line, k, unlock)
		} else {
			w.st.emit(h.at, "%s.%s() can reach the end of the function still held; add defer %s.%s()",
				k, lock, k, unlock)
		}
	}
}

// record walks the parts of s evaluated at s (headers only for
// control statements — bodies live in their own blocks), classifying
// field accesses as reads or writes.
func (w *gbWalk) record(s ast.Stmt, st lockState) {
	switch s := s.(type) {
	case nil:
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.recordWrite(lhs, st)
		}
		for _, rhs := range s.Rhs {
			w.recordExpr(rhs, st)
		}
	case *ast.IncDecStmt:
		w.recordWrite(s.X, st)
	case *ast.IfStmt:
		w.record(s.Init, st)
		w.recordExpr(s.Cond, st)
	case *ast.ForStmt:
		w.record(s.Init, st)
		w.recordExpr(s.Cond, st)
		w.record(s.Post, st)
	case *ast.RangeStmt:
		w.recordExpr(s.X, st)
	case *ast.SwitchStmt:
		w.record(s.Init, st)
		w.recordExpr(s.Tag, st)
	case *ast.TypeSwitchStmt:
		w.record(s.Init, st)
		w.record(s.Assign, st)
	case *ast.LabeledStmt:
		w.record(s.Stmt, st)
	case *ast.DeferStmt:
		w.recordExpr(s.Call, st)
	case *ast.GoStmt:
		w.recordExpr(s.Call, st)
	case *ast.ExprStmt:
		w.recordExpr(s.X, st)
	case *ast.SendStmt:
		w.recordExpr(s.Chan, st)
		w.recordExpr(s.Value, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.recordExpr(r, st)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					w.recordExpr(v, st)
				}
			}
		}
	}
}

// recordWrite classifies the left side of an assignment: a stored
// field is a write, an indexed field (s.m[k] = v) mutates the
// container, a write through a dereferenced pointer reads the field.
func (w *gbWalk) recordWrite(lhs ast.Expr, st lockState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		w.recordAccess(l, true, st)
		w.handled[l] = true
		w.recordExpr(l.X, st)
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			w.recordAccess(sel, true, st)
			w.handled[sel] = true
			w.recordExpr(sel.X, st)
		} else {
			w.recordExpr(l.X, st)
		}
		w.recordExpr(l.Index, st)
	case *ast.StarExpr:
		w.recordExpr(l.X, st)
	case *ast.Ident:
		// Local rebinding: not a field access.
	default:
		w.recordExpr(lhs, st)
	}
}

// recordExpr scans one read-context expression tree. Function
// literals are queued for their own scope walk; &x.f arguments to
// sync/atomic calls are exempt; a bare &x.f elsewhere counts as a
// write (the address can be stored and mutated later).
func (w *gbWalk) recordExpr(x ast.Expr, st lockState) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.queueLit(n, st)
			return false
		case *ast.CallExpr:
			if gbSyncCallee(w.pkg, n) {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						w.syncLits[lit] = true
					}
				}
			}
			w.noteCall(n, st)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					if !w.atomics[n] {
						w.recordAccess(sel, true, st)
					}
					w.handled[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if !w.handled[n] {
				w.recordAccess(n, false, st)
			}
		}
		return true
	})
}

// queueLit schedules a function literal's body: an escaping literal
// starts with no locks held (it may run after every Unlock), a
// non-escaping one inherits the state where it is created.
func (w *gbWalk) queueLit(lit *ast.FuncLit, st lockState) {
	escapes := w.inEsc || (w.esc[lit.Pos()] && !w.syncLits[lit])
	entry := lockState{}
	if !escapes {
		entry = cloneLocks(st)
	}
	w.lits = append(w.lits, gbLitWork{lit: lit, locks: entry, inEsc: escapes})
}

// noteCall marks atomic-call arguments exempt and records the lock
// state at calls to in-module functions, one observation per guarded
// binding (receiver and parameters), feeding the interprocedural
// entry-lock fixpoint.
func (w *gbWalk) noteCall(call *ast.CallExpr, st lockState) {
	var fn *types.Func
	var recvArg ast.Expr
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ = w.pkg.Info.Uses[f.Sel].(*types.Func)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			for _, arg := range call.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
					w.atomics[u] = true
				}
			}
			return
		}
		recvArg = f.X
	case *ast.Ident:
		fn, _ = w.pkg.Info.Uses[f].(*types.Func)
	}
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	calleeID := FuncID(fn)
	node := w.st.prog.Graph.Nodes[calleeID]
	if node == nil {
		return
	}
	if sig.Recv() != nil && recvArg != nil {
		w.observe(calleeID, receiverIdent(node.Decl), sig.Recv().Type(), recvArg, st)
	}
	i := 0
	for _, field := range node.Decl.Type.Params.List {
		for _, name := range field.Names {
			if i < len(call.Args) {
				if obj := node.Pkg.Info.Defs[name]; obj != nil {
					w.observe(calleeID, name.Name, obj.Type(), call.Args[i], st)
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// observe files one call-site observation: the locks held on argExpr,
// which the callee sees as its binding named binding.
func (w *gbWalk) observe(calleeID, binding string, bindType types.Type, argExpr ast.Expr, st lockState) {
	typeID := namedTypeID(bindType)
	if binding == "" || w.st.types[typeID] == nil {
		return
	}
	held := heldOn(st, typeID, types.ExprString(argExpr))
	callerBinding := ""
	if id, ok := ast.Unparen(argExpr).(*ast.Ident); ok && !w.inEsc {
		if obj := w.pkg.Info.ObjectOf(id); obj != nil && namedTypeID(obj.Type()) == typeID {
			callerBinding = w.bindings[obj]
		}
	}
	w.st.obs[calleeID] = append(w.st.obs[calleeID], gbObs{
		binding: binding, held: held, caller: w.fnID, callerBinding: callerBinding,
	})
}

// heldOn returns the modes of the typeID locks st holds on the holder
// expression expr, keyed by mutex field.
func heldOn(st lockState, typeID, expr string) map[string]int {
	held := map[string]int{}
	for k, v := range st {
		if k.typ == typeID && k.expr == expr && !k.deferred {
			held[k.field] = v.mode
		}
	}
	return held
}

// gbSyncCallee reports whether call's target is known to invoke its
// function-literal arguments synchronously, before returning: the
// sort and slices comparator/visitor helpers. (A conservative
// allowlist — anything else passed a closure is treated as escaping.)
func gbSyncCallee(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// recordAccess records one field access if it is on a guarded struct
// and not exempt.
func (w *gbWalk) recordAccess(sel *ast.SelectorExpr, write bool, st lockState) {
	v, ok := w.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	baseT := w.pkg.Info.TypeOf(sel.X)
	if baseT == nil {
		return
	}
	typeID := namedTypeID(baseT)
	gt := w.st.types[typeID]
	if gt == nil {
		return
	}
	gf := gt.fields[sel.Sel.Name]
	if gf == nil || gf.nolock || gf.exempt {
		return
	}
	// Constructor exemption: the access is rooted at a local that only
	// ever holds storage this function allocated, so the struct is not
	// yet shared.
	if w.fresh[rootObj(w.pkg, sel.X)] {
		return
	}
	held := heldOn(st, typeID, types.ExprString(sel.X))
	binding := ""
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && !w.inEsc {
		binding = w.bindings[w.pkg.Info.ObjectOf(id)]
	}
	w.st.accesses = append(w.st.accesses, &gbAccess{
		pos:     sel.Sel.Pos(),
		typeID:  typeID,
		field:   sel.Sel.Name,
		write:   write,
		held:    held,
		fnID:    w.fnID,
		binding: binding,
		inEsc:   w.inEsc,
	})
}

// buildEntries computes the interprocedural closure: for each
// unexported function and each of its guarded bindings (receiver or
// parameter), a guard held by every in-module call site on the
// corresponding argument counts as held at entry. The fixpoint starts
// optimistic (everything held) and narrows by intersection over the
// observations, inheriting the caller's own entry locks when the
// argument is the caller's binding, so mutually recursive locked
// helpers converge. Exported functions never qualify: external
// callers are invisible, so no lock can be assumed.
func (st *gbState) buildEntries() {
	st.entry = map[string]map[string]map[string]int{}
	type slot struct{ fn, binding, typeID string }
	var slots []slot
	for _, id := range st.prog.Graph.Order {
		n := st.prog.Graph.Nodes[id]
		if token.IsExported(n.Obj.Name()) || len(st.obs[id]) == 0 {
			continue
		}
		// Which bindings does this callee have, and of what type?
		bindType := map[string]string{}
		for obj, name := range st.guardedBindings(n) {
			bindType[name] = namedTypeID(obj.Type())
		}
		seen := map[string]bool{}
		for _, o := range st.obs[id] {
			typeID, ok := bindType[o.binding]
			if !ok || seen[o.binding] {
				continue
			}
			seen[o.binding] = true
			gt := st.types[typeID]
			all := map[string]int{}
			for m := range gt.mutexes {
				all[m] = gbWrite
			}
			if st.entry[id] == nil {
				st.entry[id] = map[string]map[string]int{}
			}
			st.entry[id][o.binding] = all
			slots = append(slots, slot{fn: id, binding: o.binding, typeID: typeID})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sl := range slots {
			var next map[string]int
			for _, o := range st.obs[sl.fn] {
				if o.binding != sl.binding {
					continue
				}
				eff := map[string]int{}
				for f, k := range o.held {
					eff[f] = k
				}
				if o.callerBinding != "" {
					for f, k := range st.entry[o.caller][o.callerBinding] {
						if k > eff[f] {
							eff[f] = k
						}
					}
				}
				if next == nil {
					next = eff
					continue
				}
				for f, k := range next {
					ek, ok := eff[f]
					if !ok {
						delete(next, f)
					} else if ek < k {
						next[f] = ek
					}
				}
			}
			cur := st.entry[sl.fn][sl.binding]
			same := len(cur) == len(next)
			if same {
				for f, k := range cur {
					if next[f] != k {
						same = false
						break
					}
				}
			}
			if !same {
				st.entry[sl.fn][sl.binding] = next
				changed = true
			}
		}
	}
}

// inferAndFlag finalizes each access's lock set with the
// interprocedural entries, infers or reads off each field's guard,
// and emits the findings.
func (st *gbState) inferAndFlag() {
	type fieldKey struct{ typ, field string }
	groups := map[fieldKey][]*gbAccess{}
	var keys []fieldKey
	for _, a := range st.accesses {
		if a.binding != "" {
			for f, k := range st.entry[a.fnID][a.binding] {
				if k > a.held[f] {
					a.held[f] = k
				}
			}
		}
		k := fieldKey{a.typeID, a.field}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], a)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].typ != keys[j].typ {
			return keys[i].typ < keys[j].typ
		}
		return keys[i].field < keys[j].field
	})
	for _, k := range keys {
		gt := st.types[k.typ]
		gf := gt.fields[k.field]
		accesses := groups[k]
		guard := gf.pinned
		why := fmt.Sprintf("%s %s", GuardedByDirective, guard)
		if guard == "" {
			var mutexes []string
			for m := range gt.mutexes {
				mutexes = append(mutexes, m)
			}
			sort.Strings(mutexes)
			best, bestN := "", 0
			for _, m := range mutexes {
				n := 0
				for _, a := range accesses {
					if a.held[m] >= gbRead {
						n++
					}
				}
				if n > bestN {
					best, bestN = m, n
				}
			}
			// Large-majority inference: at least two locked accesses
			// and at least 3 locked for every unlocked one.
			if bestN >= 2 && bestN*4 >= len(accesses)*3 {
				guard = best
				why = fmt.Sprintf("inferred from %d/%d locked accesses", bestN, len(accesses))
			}
		}
		if guard == "" {
			continue
		}
		name := trimModule(k.typ) + "." + k.field
		for _, a := range accesses {
			mode := a.held[guard]
			switch {
			case mode == gbNone:
				kind := "read of"
				if a.write {
					kind = "write to"
				}
				suffix := ""
				if a.inEsc {
					suffix = " [escaping closure: the creating function's critical section does not cover this]"
				}
				st.emit(a.pos,
					"unguarded %s %s (guard %s, %s); hold %s here, or annotate the field %s <reason> if lock-free access is intended%s",
					kind, name, guard, why, guard, NolockDirective, suffix)
			case mode == gbRead && a.write:
				st.emit(a.pos,
					"write to %s under %s.RLock(); a read lock admits concurrent readers — upgrade this section to %s.Lock()",
					name, guard, guard)
			}
		}
	}
}
