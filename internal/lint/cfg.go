package lint

import (
	"go/ast"
)

// This file builds a per-function control-flow graph of basic blocks
// straight from the AST. The locks rule's must-hold dataflow
// (locks.go) iterates its transfer function over it to a fixpoint;
// precision is deliberately modest — enough to know which locks every
// path into a statement holds — because that is all the rule asks,
// not full SSA.

// Block is one basic block: a maximal run of straight-line statements
// plus the edges out. Control-flow statements (if, for, range,
// switch, select) appear as the last "header" statement of the block
// that evaluates their condition; the dataflow transfer function
// interprets the header's init/condition effects and the CFG supplies
// the branch edges.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // synthetic; every return and fall-off edge ends here
	Blocks []*Block
}

// cfgBuilder threads the "current block" through the statement walk.
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// loops is the stack of enclosing break/continue targets.
	loops []loopFrame
	// labels maps label name -> loop frame for labeled break/continue.
	labels map[string]loopFrame
	// nextLabel names the loop/switch about to be pushed; set while
	// lowering a labeled loop statement.
	nextLabel string
}

type loopFrame struct {
	label          string
	brk, continue_ *Block
}

// BuildCFG constructs the CFG for one function body. Function
// literals inside the body are NOT descended into — each literal is
// its own analysis scope.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]loopFrame{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{Index: -1}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a statement to the current block, opening a fresh block
// if control already left (dead code after return/branch).
func (b *cfgBuilder) add(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

// startHeader seals the current block and opens a fresh one holding
// only the loop header. Loop headers are back-edge targets, so they
// must not share a block with the straight-line statements before
// them — those would be re-applied on every iteration.
func (b *cfgBuilder) startHeader(s ast.Stmt) {
	if b.cur != nil && len(b.cur.Stmts) > 0 {
		prev := b.cur
		b.cur = b.newBlock()
		b.edge(prev, b.cur)
	}
	b.add(s)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s) // header: Init and Cond effects
		cond := b.cur
		b.cur = nil
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		var elseEnd *Block
		join := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		} else {
			b.edge(cond, join)
		}
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.startHeader(s) // header: Init, Cond, Post effects
		head := b.cur
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after) // condition can be false on entry
		}
		// for{}: only break leaves, through its own edge to after.
		b.pushLoop(s, after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head) // back edge
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		b.startHeader(s) // header: X evaluation and Key/Value binding
		head := b.cur
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after) // empty collection
		b.pushLoop(s, after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.add(s) // header: Init/Tag effects
		head := b.cur
		after := b.newBlock()
		var clauses []ast.Stmt
		hasDefault := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		b.pushSwitch(s, after)
		for _, c := range clauses {
			var body []ast.Stmt
			switch c := c.(type) {
			case *ast.CaseClause:
				if c.List == nil {
					hasDefault = true
				}
				body = c.Body
			case *ast.CommClause:
				if c.Comm == nil {
					hasDefault = true
					body = c.Body
				} else {
					body = append([]ast.Stmt{c.Comm}, c.Body...)
				}
			}
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			b.stmtList(body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		// A switch may match no case; a select waits for one.
		if _, isSelect := s.(*ast.SelectStmt); !hasDefault && !isSelect {
			b.edge(head, after)
		}
		b.popLoop()
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)
		b.cur = nil

	case *ast.LabeledStmt:
		// Record the label so labeled break/continue resolve, then
		// lower the underlying statement.
		b.pendingLabel(s.Label.Name, s.Stmt)

	case *ast.DeferStmt, *ast.GoStmt:
		// The spawned/deferred call runs outside this straight-line
		// order; keep the statement for its argument-evaluation
		// effects only.
		b.add(s)

	default:
		// Assignments, declarations, expression statements, sends,
		// inc/dec: straight-line.
		b.add(s)
	}
}

// pendingLabel lowers a labeled statement, making the label's
// break/continue targets available while its body builds.
func (b *cfgBuilder) pendingLabel(name string, s ast.Stmt) {
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.labels[name] = loopFrame{} // placeholder; filled by push
		b.nextLabel = name
		b.stmt(s)
		delete(b.labels, name)
	default:
		b.stmt(s) // plain labeled statement (goto target): lowered as-is
	}
}

func (b *cfgBuilder) pushLoop(s ast.Stmt, brk, cont *Block) {
	f := loopFrame{label: b.nextLabel, brk: brk, continue_: cont}
	b.nextLabel = ""
	if f.label != "" {
		b.labels[f.label] = f
	}
	b.loops = append(b.loops, f)
}

func (b *cfgBuilder) pushSwitch(s ast.Stmt, brk *Block) {
	f := loopFrame{label: b.nextLabel, brk: brk}
	b.nextLabel = ""
	if f.label != "" {
		b.labels[f.label] = f
	}
	b.loops = append(b.loops, f)
}

func (b *cfgBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
}

// branch wires a break/continue/goto/fallthrough edge.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if f, ok := b.branchFrame(s, true); ok {
			b.edge(b.cur, f.brk)
			return
		}
	case "continue":
		if f, ok := b.branchFrame(s, false); ok && f.continue_ != nil {
			b.edge(b.cur, f.continue_)
			return
		}
	case "fallthrough":
		// The next case body follows; approximate with exit-free
		// fallthrough to the switch join via no extra edge (the case
		// block already edges to after).
		return
	}
	// goto, or a branch we cannot resolve: conservatively edge to
	// exit so the dataflow stays sound for reachability.
	b.edge(b.cur, b.cfg.Exit)
}

// branchFrame finds the loop frame a break/continue targets.
func (b *cfgBuilder) branchFrame(s *ast.BranchStmt, allowSwitch bool) (loopFrame, bool) {
	if s.Label != nil {
		f, ok := b.labels[s.Label.Name]
		return f, ok && f.brk != nil
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if !allowSwitch && f.continue_ == nil {
			continue // switch frames do not catch bare continue
		}
		return f, true
	}
	return loopFrame{}, false
}

// RPO returns the blocks in reverse post-order from Entry — the
// iteration order under which a forward dataflow converges fastest.
// Unreachable blocks are appended at the end so no statement is
// skipped.
func (c *CFG) RPO() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	out := make([]*Block, 0, len(c.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range c.Blocks {
		if !seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// inspectShallow walks the parts of s the CFG evaluates AT s —
// everything except nested statement bodies, which live in their own
// blocks. Function literals are pruned too (separate scopes), but f
// sees the literal node itself so callers can schedule a closure
// analysis.
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
