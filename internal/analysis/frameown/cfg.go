package frameown

// The intra-procedural control-flow graph the ownership analysis runs on,
// and the forward dataflow fixpoint over it. The graph decomposes
// structured statements into blocks; a block's Nodes are the straight-line
// work executed when control reaches it, in order:
//
//   - simple statements (assign, expr, decl, defer, go, send, inc/dec,
//     return) appear as themselves;
//   - branch conditions, switch tags, and case expressions appear as bare
//     ast.Expr nodes (the analysis treats them as reads);
//   - a range loop's header appears as the *ast.RangeStmt itself — the
//     analysis interprets only its Key/Value/X parts, the body is separate
//     blocks.
//
// A block that ends on a two-way branch records the condition in Cond, and
// its successor order is fixed: Succs[0] is the true edge, Succs[1] the
// false edge. Branching, loops, labeled break/continue, goto, switch
// fallthrough and select arms all become edges, so facts flow around back
// edges and skipped releases instead of down a linear statement walk.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// block is one basic block.
type block struct {
	Index int
	Nodes []ast.Node
	Succs []*block

	// Cond, when non-nil, is the branch condition evaluated last in this
	// block: Succs[0] is taken when it is true, Succs[1] when false. The
	// condition also appears as the final expr node, which is how the
	// ownership analysis reads it.
	Cond ast.Expr

	// Panics marks a block that reaches Exit by panicking rather than
	// returning; exit-state checks (leak detection) skip such edges.
	Panics bool
}

// Last returns the final node of the block, or nil.
func (b *block) Last() ast.Node {
	if len(b.Nodes) == 0 {
		return nil
	}
	return b.Nodes[len(b.Nodes)-1]
}

// Returns reports whether the block terminates in an explicit return.
func (b *block) Returns() bool {
	_, ok := b.Last().(*ast.ReturnStmt)
	return ok
}

// graph is the CFG of one function body.
type graph struct {
	Entry *block
	Exit  *block
	// Blocks holds every block in creation (≈ source) order, Entry first.
	// Unreachable blocks (code after return/goto) are retained with no
	// predecessor edges; dataflow never visits them.
	Blocks []*block
}

// Preds returns the predecessors of b (computed on demand; graphs are
// small).
func (g *graph) Preds(b *block) []*block {
	var preds []*block
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s == b {
				preds = append(preds, blk)
				break
			}
		}
	}
	return preds
}

// builder carries the construction state.
type builder struct {
	g   *graph
	cur *block
	// curDead marks cur as an unreachable stub (created after a
	// terminator): edges out of it are suppressed so dead code cannot
	// resurrect a join block.
	curDead bool
	info    *types.Info

	// frames is the break/continue target stack: loops push both targets,
	// switch/select push a break target only.
	frames []frame
	// labels maps a label name to its target block, created on first
	// reference (a forward goto) or at the labeled statement itself.
	labels map[string]*block
}

type frame struct {
	label string
	brk   *block
	cont  *block // nil for switch/select frames
}

// buildCFG builds the CFG of body. info may be nil; when present it is used to
// recognize the builtin panic through shadowing.
func buildCFG(body *ast.BlockStmt, info *types.Info) *graph {
	g := &graph{}
	b := &builder{g: g, info: info, labels: make(map[string]*block)}
	g.Entry = b.newBlock()
	g.Exit = &block{Index: -1} // reindexed in finish
	b.setCur(g.Entry)
	b.stmt(body)
	// Fall off the end: the implicit return — unless everything already
	// terminated and cur is an unreachable stub.
	if b.cur == g.Entry || len(g.Preds(b.cur)) > 0 {
		b.jump(g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

func (b *builder) newBlock() *block {
	blk := &block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump links cur to target and leaves cur there (a plain goto edge).
// Edges out of a dead stub are suppressed.
func (b *builder) jump(target *block) {
	if b.curDead {
		return
	}
	b.cur.Succs = append(b.cur.Succs, target)
}

// setCur moves construction to blk, which is live (it was just linked or
// is a label target).
func (b *builder) setCur(blk *block) {
	b.cur = blk
	b.curDead = false
}

// terminate parks construction on a fresh unreachable block: statements
// after a return/goto/break still get blocks, but nothing flows into them.
func (b *builder) terminate() {
	b.cur = b.newBlock()
	b.curDead = true
}

func (b *builder) emit(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// branch ends cur on cond with an ordered true/false successor pair and
// returns the two freshly-linked blocks.
func (b *builder) branch(cond ast.Expr) (onTrue, onFalse *block) {
	b.emit(cond)
	b.cur.Cond = cond
	onTrue = b.newBlock()
	onFalse = b.newBlock()
	b.cur.Succs = append(b.cur.Succs, onTrue, onFalse)
	return onTrue, onFalse
}

// isPanic reports whether stmt is a call to the builtin panic.
func (b *builder) isPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info != nil {
		_, isBuiltin := b.info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	return true
}

// labelTarget returns (creating on demand) the block a goto to name lands
// on.
func (b *builder) labelTarget(name string) *block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findFrame resolves a break/continue target; label may be empty. For
// continue, only loop frames qualify.
func (b *builder) findFrame(label string, wantCont bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if wantCont && f.cont == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// stmt builds one statement into the graph. label is non-empty only when
// the statement was directly labeled (so its loop/switch frame can answer
// labeled break/continue).
func (b *builder) stmt(s ast.Stmt) { b.stmtLabeled(s, "") }

func (b *builder) stmtLabeled(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil:

	case *ast.BlockStmt:
		for _, sub := range s.List {
			b.stmt(sub)
		}

	case *ast.LabeledStmt:
		// The label block is the target of gotos (and the head of a labeled
		// loop); flow falls straight into it.
		target := b.labelTarget(s.Label.Name)
		b.jump(target)
		b.setCur(target)
		b.stmtLabeled(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		thenB, elseB := b.branch(s.Cond)
		join := b.newBlock()
		b.setCur(thenB)
		b.stmt(s.Body)
		b.jump(join)
		b.setCur(elseB)
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.jump(join)
		b.setCur(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.setCur(head)
		var body, exit *block
		if s.Cond != nil {
			body, exit = b.branch(s.Cond)
		} else {
			body = b.newBlock()
			exit = b.newBlock() // reachable only via break
			b.jump(body)
		}
		cont := head
		var post *block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.frames = append(b.frames, frame{label: label, brk: exit, cont: cont})
		b.setCur(body)
		b.stmt(s.Body)
		b.jump(cont)
		if post != nil {
			b.setCur(post)
			b.stmt(s.Post)
			b.jump(head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.setCur(exit)

	case *ast.RangeStmt:
		head := b.newBlock()
		b.jump(head)
		b.setCur(head)
		// The header node carries X (a read) and Key/Value (per-iteration
		// definitions); analyses interpret just those parts.
		b.emit(s)
		body := b.newBlock()
		exit := b.newBlock()
		// Iteration count is unknowable: two unconditioned successors.
		b.cur.Succs = append(b.cur.Succs, body, exit)
		b.frames = append(b.frames, frame{label: label, brk: exit, cont: head})
		b.setCur(body)
		b.stmt(s.Body)
		b.jump(head)
		b.frames = b.frames[:len(b.frames)-1]
		b.setCur(exit)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.cases(s.Body, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cases(s.Body, label, s.Assign)

	case *ast.SelectStmt:
		head := b.cur
		join := b.newBlock()
		b.frames = append(b.frames, frame{label: label, brk: join})
		any := false
		for _, raw := range s.Body.List {
			cl, ok := raw.(*ast.CommClause)
			if !ok {
				continue
			}
			any = true
			arm := b.newBlock()
			head.Succs = append(head.Succs, arm)
			b.setCur(arm)
			if cl.Comm != nil {
				b.stmt(cl.Comm)
			}
			for _, st := range cl.Body {
				b.stmt(st)
			}
			b.jump(join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if !any {
			// select{} blocks forever; keep the graph connected anyway.
			head.Succs = append(head.Succs, join)
		}
		b.setCur(join)

	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.Exit)
		b.terminate()

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(name, false); f != nil {
				b.jump(f.brk)
			}
			b.terminate()
		case token.CONTINUE:
			if f := b.findFrame(name, true); f != nil {
				b.jump(f.cont)
			}
			b.terminate()
		case token.GOTO:
			b.jump(b.labelTarget(s.Label.Name))
			b.terminate()
		}
		// FALLTHROUGH is handled by cases.

	case *ast.ExprStmt:
		b.emit(s)
		if b.isPanic(s) {
			b.cur.Panics = true
			b.jump(b.g.Exit)
			b.terminate()
		}

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: straight-line.
		b.emit(s)
	}
}

// cases builds a switch/type-switch body: the current block fans out to one
// block per case clause (each beginning with its case expressions as
// reads), every arm flows to a common join, and a missing default adds a
// head→join edge. assign, for type switches, is re-emitted at the top of
// every arm so per-arm implicit definitions sit in the arm that declares
// them.
func (b *builder) cases(body *ast.BlockStmt, label string, assign ast.Stmt) {
	head := b.cur
	join := b.newBlock()
	b.frames = append(b.frames, frame{label: label, brk: join})

	// Pre-create arm blocks so fallthrough can target the next arm.
	var clauses []*ast.CaseClause
	var arms []*block
	sawDefault := false
	for _, raw := range body.List {
		cl, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cl)
		arms = append(arms, b.newBlock())
		if cl.List == nil {
			sawDefault = true
		}
	}
	for i, cl := range clauses {
		arm := arms[i]
		head.Succs = append(head.Succs, arm)
		b.setCur(arm)
		if assign != nil {
			b.emit(assign)
		}
		for _, x := range cl.List {
			b.emit(x)
		}
		falls := false
		for _, st := range cl.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				break
			}
			b.stmt(st)
		}
		if falls && i+1 < len(arms) {
			b.jump(arms[i+1])
			b.terminate()
		} else {
			b.jump(join)
		}
	}
	if !sawDefault {
		head.Succs = append(head.Succs, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.setCur(join)
}

// fixpoint iterates transfer over g in reverse postorder until the entry
// state of every reachable block stops changing, and returns those states;
// unreachable blocks are absent from the map. The env lattice has finite
// height, and the round cap bounds the iteration regardless.
func fixpoint(g *graph, entry env, transfer func(*block, env)) map[*block]env {
	order := g.ReversePostorder()
	in := map[*block]env{g.Entry: entry}
	for round := 0; round < 4+4*len(g.Blocks); round++ {
		changed := false
		for _, b := range order {
			e, ok := in[b]
			if !ok {
				continue
			}
			out := e.clone()
			transfer(b, out)
			for _, succ := range b.Succs {
				cur, ok := in[succ]
				if !ok {
					in[succ] = out.clone()
					changed = true
					continue
				}
				before := cur.clone()
				cur.join(out)
				if !cur.equal(before) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// ReversePostorder returns the reachable blocks in reverse postorder of a
// DFS from Entry — the canonical forward-dataflow visit order.
func (g *graph) ReversePostorder() []*block {
	seen := make(map[*block]bool, len(g.Blocks))
	var post []*block
	var dfs func(b *block)
	dfs = func(b *block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
