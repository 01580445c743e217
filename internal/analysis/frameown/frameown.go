// Package frameown implements the gemlint pass that enforces the pooled
// frame-ownership contract: a []byte acquired from wire.Pool (or a wire
// builder) must be released or handed to exactly one owner on every path,
// and never touched again after the handoff.
//
// The pass is intra-procedural and path-sensitive: it builds each
// function's CFG (cfg.go) and runs a forward dataflow
// analysis over it, tracking every local []byte variable as a set of
// possible ownership facts — may-owned, may-released — that joins by union
// at merge points. It reports:
//
//   - double release/transfer: the frame reaches an owning call (Pool.Put,
//     Context.Emit, Port.Send, anything //gem:owns) twice on some path,
//     including the loop-carried variant that shipped the L2 flood bug and
//     the goto-retry variant the old linear scan missed;
//   - use after release: any read of the variable once ownership is
//     definitely gone;
//   - leak: a locally-acquired frame still owned on some path out of the
//     function — an early return, a break/continue edge that skips the
//     release, or a select arm without one.
//
// Aliasing (slicing, struct stores, closure capture, dynamic calls) demotes
// a variable to untracked rather than guessing: the pass prefers silence to
// false positives, and the runtime pool balance check (wire.Pool
// AssertBalanced) backstops what static analysis abstains from.
package frameown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gem/internal/analysis"
)

// Analyzer is the frameown pass.
var Analyzer = &analysis.Analyzer{
	Name: "frameown",
	Doc:  "enforce the pooled frame-ownership contract (double release, use after release, leaks)",
	Run:  run,
}

// state is a bitset of ownership facts that may hold on some path into the
// current program point. Union is the join: stOwned|stReleased means a
// branch released the frame and another did not.
type state uint8

const (
	stOwned state = 1 << iota
	stReleased
)

// varInfo is the abstract value of one tracked []byte variable.
type varInfo struct {
	state state
	// local is true for frames acquired in this function (pool.Get or a
	// wire builder): only those are leak-checked at returns.
	local bool
	// escaped disables the leak check once the value aliases into
	// something the pass cannot follow.
	escaped bool
	// deferRel records a `defer pool.Put(v)` style release.
	deferRel bool
	// relPos is where ownership first left, for the double-release message.
	relPos token.Pos
}

func (v *varInfo) clone() *varInfo { c := *v; return &c }

// env maps tracked variables to their abstract state.
type env map[*types.Var]*varInfo

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v.clone()
	}
	return c
}

// join merges another path's state into e by union: a variable owned on one
// path and released on the other carries both facts, so the later owning
// call still reports "released twice on some path" and the exit check still
// reports "leaks on some path". deferRel survives only when both paths have
// the deferred cover.
func (e env) join(o env) {
	for k, v := range e {
		if ov, ok := o[k]; ok {
			v.state |= ov.state
			v.escaped = v.escaped || ov.escaped
			v.deferRel = v.deferRel && ov.deferRel
			if v.relPos == token.NoPos {
				v.relPos = ov.relPos
			}
		}
	}
	for k, ov := range o {
		if _, ok := e[k]; !ok {
			e[k] = ov.clone()
		}
	}
}

// equal is the fixpoint convergence test; relPos is cosmetic and excluded.
func (e env) equal(o env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		ov, ok := o[k]
		if !ok || ov.state != v.state || ov.local != v.local ||
			ov.escaped != v.escaped || ov.deferRel != v.deferRel {
			return false
		}
	}
	return true
}

type checker struct {
	pass *analysis.Pass
	owns map[string]bool
	// silent suppresses reports during the convergence phase; the
	// reporting phase then visits each reachable block exactly once.
	silent bool
	// seen dedups diagnostics across blocks and exit edges.
	seen map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass: pass,
		owns: analysis.MergeOwns(pass),
		seen: make(map[string]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.silent {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

func (c *checker) posStr(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	base := make(env)
	// []byte parameters start owned-but-borrowed: double release and use
	// after release apply, the leak check does not (the caller may retain
	// ownership on non-transferring calls).
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok && analysis.IsByteSlice(v.Type()) {
					base[v] = &varInfo{state: stOwned, local: false}
				}
			}
		}
	}

	g := buildCFG(fd.Body, c.pass.TypesInfo)

	// Phase 1: converge silently so loop-carried facts (a transfer flowing
	// around the back edge, a leak around a continue) settle. Phase 2: one
	// reporting visit per reachable block from the converged entry states,
	// then the leak check on every fall-off-the-end edge.
	c.silent = true
	in := fixpoint(g, base.clone(), c.transfer)
	c.silent = false
	for _, b := range g.ReversePostorder() {
		s, ok := in[b]
		if !ok {
			continue
		}
		s = s.clone()
		c.transfer(b, s)
		if b.Returns() || b.Panics {
			continue
		}
		for _, succ := range b.Succs {
			if succ == g.Exit {
				c.leakCheck(s, fd.Body.Rbrace)
				break
			}
		}
	}
}

// transfer applies one block's nodes to the environment.
func (c *checker) transfer(b *block, e env) {
	for _, n := range b.Nodes {
		c.node(n, e)
	}
}

// node interprets one CFG node.
func (c *checker) node(n ast.Node, e env) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.walkAssign(s, e)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						c.checkUses(e, val, nil)
						if call, ok := ast.Unparen(val).(*ast.CallExpr); ok {
							c.handleCall(e, call, false)
						}
					}
					if len(vs.Names) == 1 && len(vs.Values) == 1 {
						if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok && c.acquires(call) {
							if v, ok := c.pass.TypesInfo.Defs[vs.Names[0]].(*types.Var); ok {
								e[v] = &varInfo{state: stOwned, local: true}
							}
						}
					}
				}
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			c.handleCall(e, call, false)
		} else {
			c.checkUses(e, s.X, nil)
		}

	case *ast.DeferStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.closureEscape(e, lit)
			return
		}
		c.handleCall(e, s.Call, true)

	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.closureEscape(e, lit)
			return
		}
		// Frame args to a goroutine escape: release timing is unknowable.
		for _, arg := range s.Call.Args {
			c.checkUses(e, arg, nil)
			c.escapeVar(e, arg)
		}

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			c.checkUses(e, res, nil)
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
				c.handleCall(e, call, false)
			}
			// Returning a frame transfers ownership to the caller.
			if _, info := c.varOf(e, res); info != nil && info.state&stOwned != 0 {
				info.state = stReleased
				info.relPos = res.Pos()
				info.escaped = true
			}
		}
		c.leakCheck(e, s.Pos())

	case *ast.SendStmt:
		c.checkUses(e, s.Chan, nil)
		c.checkUses(e, s.Value, nil)
		c.escapeVar(e, s.Value)

	case *ast.IncDecStmt:
		c.checkUses(e, s.X, nil)

	case *ast.RangeStmt:
		// The header node: X is a read; Key/Value are fresh per-iteration
		// definitions of non-frame loop variables (a []byte range element
		// would be an alias the pass does not track).
		c.checkUses(e, s.X, nil)

	case *ast.BranchStmt, *ast.EmptyStmt:

	case ast.Expr:
		// Branch conditions, switch tags, case expressions: reads, plus any
		// call effects (an owning call in a condition runs on both edges).
		if call, ok := ast.Unparen(s).(*ast.CallExpr); ok {
			c.handleCall(e, call, false)
		} else {
			c.checkUses(e, s, nil)
		}
	}
}

// escapeVar demotes a tracked variable mentioned as expr to escaped.
func (c *checker) escapeVar(e env, expr ast.Expr) {
	if v, info := c.varOf(e, expr); info != nil {
		info.escaped = true
		if info.state&stOwned != 0 {
			delete(e, v)
		}
	}
}

// leakCheck reports locally-acquired frames still owned on some path at a
// function exit.
func (c *checker) leakCheck(e env, pos token.Pos) {
	for v, info := range e {
		if info.state&stOwned != 0 && info.local && !info.escaped && !info.deferRel {
			c.report(pos, "owned frame %q leaks: no release, emit, or ownership transfer on this path (acquired at %s)",
				v.Name(), c.posStr(v.Pos()))
		}
	}
}

// varOf resolves expr to a tracked variable, seeing through parens.
func (c *checker) varOf(e env, expr ast.Expr) (*types.Var, *varInfo) {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil, nil
	}
	info := e[v]
	return v, info
}

// checkUses walks expr reporting reads of definitely-released variables;
// skip, when non-nil, suppresses the report for one ident (the argument of
// the very call being handled).
func (c *checker) checkUses(e env, expr ast.Expr, skip *ast.Ident) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.closureEscape(e, lit)
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == skip {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if info := e[v]; info != nil && info.state == stReleased {
			c.report(id.Pos(), "use of frame %q after release/transfer (released at %s)",
				v.Name(), c.posStr(info.relPos))
		}
		return true
	})
}

// closureEscape marks every tracked variable captured by a func literal as
// escaped and untracked: the closure may release or outlive it.
func (c *checker) closureEscape(e env, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			if info := e[v]; info != nil {
				info.escaped = true
				if info.state&stOwned != 0 {
					delete(e, v)
				}
			}
		}
		return true
	})
}

// acquires reports whether call returns a fresh pooled frame: Pool.Get or a
// wire Build* builder (legacy or Into form).
func (c *checker) acquires(call *ast.CallExpr) bool {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.FullName() == "(*"+analysis.WirePkgPath+".Pool).Get" {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == analysis.WirePkgPath &&
		strings.HasPrefix(fn.Name(), "Build") {
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Results().Len() == 1 && analysis.IsByteSlice(sig.Results().At(0).Type())
	}
	return false
}

// handleCall applies a call's effect on the environment.
func (c *checker) handleCall(e env, call *ast.CallExpr, deferred bool) {
	// Nested calls in arguments first (e.g. Send(BuildAckInto(...)) —
	// handled as an immediate transfer of an anonymous frame: nothing to
	// track).
	for _, arg := range call.Args {
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			c.handleCall(e, inner, false)
		}
	}

	// Builtins (len, cap, copy, append, delete, clear) only read the
	// buffer: a borrow, not an escape. Losing track here would hide leaks
	// past the ubiquitous copy(dst, frame) idiom.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			for _, arg := range call.Args {
				c.checkUses(e, arg, nil)
			}
			return
		}
	}

	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		// Dynamic call: tracked arguments escape.
		for _, arg := range call.Args {
			c.checkUses(e, arg, nil)
			c.escapeVar(e, arg)
		}
		c.checkUses(e, call.Fun, nil)
		return
	}

	if c.owns[fn.FullName()] {
		idx := analysis.OwnedArgIndex(fn)
		if idx >= 0 && idx < len(call.Args) {
			if v, info := c.varOf(e, call.Args[idx]); info != nil {
				_ = v
				if info.state&stReleased != 0 {
					c.report(call.Args[idx].Pos(),
						"frame %q released or transferred twice on this path (first at %s, again in call to %s)",
						v.Name(), c.posStr(info.relPos), fn.Name())
				}
				if deferred {
					info.deferRel = true
				} else {
					if info.state&stReleased == 0 {
						info.relPos = call.Args[idx].Pos()
					}
					info.state = stReleased
				}
			}
			// Other arguments are plain uses.
			for i, arg := range call.Args {
				if i == idx {
					continue
				}
				c.checkUses(e, arg, nil)
			}
			return
		}
	}

	// Statically-known non-owning call: a borrow. The callee may read the
	// frame but ownership stays here — this is precisely what lets the pass
	// flag leaks past calls like DecodeFromBytes or copy.
	for _, arg := range call.Args {
		c.checkUses(e, arg, nil)
	}
	c.checkUses(e, call.Fun, nil)
}

// walkAssign handles acquisition, aliasing, and reassignment.
func (c *checker) walkAssign(s *ast.AssignStmt, e env) {
	// RHS effects first.
	for _, rhs := range s.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			c.handleCall(e, call, false)
		} else {
			c.checkUses(e, rhs, nil)
		}
	}

	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		lhsID, _ := ast.Unparen(s.Lhs[0]).(*ast.Ident)
		rhs := ast.Unparen(s.Rhs[0])

		// v := pool.Get(n) / v := wire.BuildXInto(...)
		if call, ok := rhs.(*ast.CallExpr); ok && c.acquires(call) && lhsID != nil {
			var v *types.Var
			if s.Tok == token.DEFINE {
				v, _ = c.pass.TypesInfo.Defs[lhsID].(*types.Var)
			} else {
				v, _ = c.pass.TypesInfo.Uses[lhsID].(*types.Var)
				if info := e[v]; info != nil && info.state == stOwned && info.local && !info.escaped && !info.deferRel {
					c.report(s.Pos(), "owned frame %q overwritten before release: the previous buffer leaks", v.Name())
				}
			}
			if v != nil && analysis.IsByteSlice(v.Type()) {
				e[v] = &varInfo{state: stOwned, local: true}
			}
			return
		}

		// Alias flows: w := v, w := v[a:b] — the source stays owned for
		// double-release purposes but is no longer leak-checkable.
		if _, info := c.aliasSource(e, rhs); info != nil {
			info.escaped = true
		}

		// Reassigning a tracked variable to anything else unlinks it.
		if lhsID != nil {
			var v *types.Var
			if s.Tok == token.DEFINE {
				v, _ = c.pass.TypesInfo.Defs[lhsID].(*types.Var)
			} else {
				v, _ = c.pass.TypesInfo.Uses[lhsID].(*types.Var)
			}
			if v != nil {
				delete(e, v)
			}
			return
		}
	}

	// Multi-assign / compound LHS (field, index, map stores): tracked RHS
	// values escape; tracked LHS targets reset.
	for _, rhs := range s.Rhs {
		c.escapeVar(e, rhs)
	}
	for _, lhs := range s.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				delete(e, v)
			}
			if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
				delete(e, v)
			}
		} else {
			c.checkUses(e, lhs, nil)
		}
	}
}

// aliasSource returns the tracked variable whose buffer expr aliases: the
// variable itself, or a slice expression over it.
func (c *checker) aliasSource(e env, expr ast.Expr) (*types.Var, *varInfo) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return c.varOf(e, x)
	case *ast.SliceExpr:
		return c.varOf(e, x.X)
	}
	return nil, nil
}
