// Package creditbal implements the gemlint pass that enforces the credit
// and reservation balance contract of the verbs transport: every
// Credits.Acquire, successful Credits.TryAcquire, and successful
// QP.TryReserve must reach a matching Release / DropReservation — or an
// ownership-transferring Post* on the same object — on every path out of
// the function. Early returns and error branches are exactly where the
// mid-batch rebind leak lived: a reservation taken before a bounds check
// that sheds on the failure path without dropping it pins a credit until
// the reap timer fires.
//
// The pass is path-sensitive: it builds the function's CFG
// (internal/analysis/cfg) and runs a forward may-analysis whose branch
// refinement understands the admission idiom —
//
//	if !qp.TryReserve(op) { return shed }   // false edge: nothing held
//	... qp.PostRead(...)                    // true edge: reservation held
//
// including `ok := c.TryAcquire()` bindings and &&/|| compounds. Only
// definitely-held credits are tracked: a TryAcquire whose success cannot be
// proven on an edge stays silent, so the pass cannot false-positive on
// admission paths it does not understand. Tracking also ends, silently,
// when the holder escapes the function's view: it is stored, passed to an
// unknown call, returned, or a method the pass does not model runs on it.
// Cross-function balances (acquire here, release in the completion path)
// are waived with //gem:credit-ok on the acquiring line or the line above.
package creditbal

import (
	"go/ast"
	"go/token"
	"go/types"

	"gem/internal/analysis"
	"gem/internal/analysis/cfg"
)

// Analyzer is the creditbal pass.
var Analyzer = &analysis.Analyzer{
	Name: "creditbal",
	Doc:  "credits and reservations acquired from the verbs transport must be balanced on every path",
	Run:  run,
}

// Tag is the waiver annotation.
const Tag = "credit-ok"

// acquireCond maps conditional acquire methods (held only when the result
// is true) to what they hold.
var acquireCond = map[string]string{
	analysis.VerbsMethod("Credits", "TryAcquire"): "credit",
	analysis.VerbsMethod("QP", "TryReserve"):      "reservation",
}

// acquireAlways maps unconditional acquire methods to what they hold.
var acquireAlways = map[string]string{
	analysis.VerbsMethod("Credits", "Acquire"): "credit",
}

// releases is the set of explicit balance methods.
var releases = map[string]bool{
	analysis.VerbsMethod("Credits", "Release"):    true,
	analysis.VerbsMethod("QP", "DropReservation"): true,
}

// consumes is the set of posting methods that take ownership of a held
// credit or reservation on their receiver (the WQE carries it from there;
// retire/reap releases it).
var consumes = map[string]bool{
	analysis.VerbsMethod("QP", "PostRead"):            true,
	analysis.VerbsMethod("QP", "PostWrite"):           true,
	analysis.VerbsMethod("QP", "PostFetchAdd"):        true,
	analysis.VerbsMethod("QP", "Repost"):              true,
	analysis.VerbsMethod("StripedQP", "PostRead"):     true,
	analysis.VerbsMethod("StripedQP", "PostWrite"):    true,
	analysis.VerbsMethod("StripedQP", "PostFetchAdd"): true,
	analysis.VerbsMethod("StripedQP", "Repost"):       true,
}

// key identifies one holder: the root variable of the receiver chain plus
// the spelled chain ("q.credits", "home"). Chains through calls or indexing
// are not trackable.
type key struct {
	root  *types.Var
	chain string
}

// holderInfo is the abstract state of one definitely-held credit.
type holderInfo struct {
	pos      token.Pos // the acquiring call, for the diagnostic
	what     string    // "credit" or "reservation"
	via      string    // method name, for the diagnostic
	deferred bool      // a defer releases it on every path from here
}

// bindInfo records `ok := c.TryAcquire()`: the truth of ok decides whether
// the key is held.
type bindInfo struct {
	k    key
	pos  token.Pos
	what string
	via  string
}

// env is the dataflow state: definitely-held credits, boolean bindings of
// pending conditional acquires, and keys covered by a registered defer.
type env struct {
	held   map[key]*holderInfo
	binds  map[*types.Var]bindInfo
	defers map[key]bool
}

func newEnv() *env {
	return &env{
		held:   make(map[key]*holderInfo),
		binds:  make(map[*types.Var]bindInfo),
		defers: make(map[key]bool),
	}
}

func (e *env) clone() *env {
	c := newEnv()
	for k, v := range e.held {
		cv := *v
		c.held[k] = &cv
	}
	for k, v := range e.binds {
		c.binds[k] = v
	}
	for k := range e.defers {
		c.defers[k] = true
	}
	return c
}

// join merges src into e. held is a union (may-leak analysis: held on any
// path in means possibly leaked out), with deferred true only when both
// paths have cover; binds and defers keep only entries the paths agree on.
func (e *env) join(src *env) {
	for k, sv := range src.held {
		if dv, ok := e.held[k]; ok {
			dv.deferred = dv.deferred && sv.deferred
		} else {
			cv := *sv
			e.held[k] = &cv
		}
	}
	for v, db := range e.binds {
		if sb, ok := src.binds[v]; !ok || sb.k != db.k {
			delete(e.binds, v)
		}
	}
	for k := range e.defers {
		if !src.defers[k] {
			delete(e.defers, k)
		}
	}
}

func (e *env) equal(o *env) bool {
	if len(e.held) != len(o.held) || len(e.binds) != len(o.binds) || len(e.defers) != len(o.defers) {
		return false
	}
	for k, v := range e.held {
		ov, ok := o.held[k]
		if !ok || ov.deferred != v.deferred || ov.what != v.what {
			return false
		}
	}
	for v, b := range e.binds {
		ob, ok := o.binds[v]
		if !ok || ob.k != b.k {
			return false
		}
	}
	for k := range e.defers {
		if !o.defers[k] {
			return false
		}
	}
	return true
}

type checker struct {
	pass      *analysis.Pass
	ann       map[string]map[int]bool
	reporting bool
	seen      map[token.Pos]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass: pass,
		ann:  analysis.LineAnnotations(pass.Fset, pass.Files, Tag),
		seen: make(map[token.Pos]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	g := cfg.New(fd.Body, c.pass.TypesInfo)
	flow := cfg.Flow[*env]{
		Entry: newEnv,
		Clone: (*env).clone,
		Join:  func(dst, src *env) *env { dst.join(src); return dst },
		Transfer: func(b *cfg.Block, s *env) *env {
			for _, n := range b.Nodes {
				c.node(n, s)
			}
			return s
		},
		Branch: func(cond cfg.Condition, out *env) (*env, *env) {
			t, f := out.clone(), out.clone()
			c.refine(t, cond.Block.Cond, true)
			c.refine(f, cond.Block.Cond, false)
			return t, f
		},
		Equal: (*env).equal,
	}

	// Phase 1: converge silently so loop-carried state settles; phase 2:
	// one reporting visit per reachable block from the converged entry
	// states, then a leak check on the fall-off-the-end edges.
	c.reporting = false
	in := cfg.Fixpoint(g, flow)
	c.reporting = true
	outs := make(map[*cfg.Block]*env, len(in))
	for _, b := range g.ReversePostorder() {
		s, ok := in[b]
		if !ok {
			continue
		}
		s = s.clone()
		for _, n := range b.Nodes {
			c.node(n, s)
		}
		outs[b] = s
	}
	for b, out := range outs {
		if b.Returns() || b.Panics {
			continue
		}
		for _, succ := range b.Succs {
			if succ == g.Exit {
				c.leakCheck(out)
				break
			}
		}
	}
}

// leakCheck reports every definitely-held credit with no deferred cover.
func (c *checker) leakCheck(e *env) {
	for k, info := range e.held {
		if info.deferred || e.defers[k] {
			continue
		}
		c.reportLeak(k, info)
	}
}

func (c *checker) reportLeak(k key, info *holderInfo) {
	if !c.reporting || c.seen[info.pos] {
		return
	}
	c.seen[info.pos] = true
	counter := "Release"
	if info.what == "reservation" {
		counter = "DropReservation"
	}
	c.pass.Reportf(info.pos,
		"%s acquired by %s.%s is not balanced on every path: no %s or ownership-transferring Post* before function exit (annotate //gem:credit-ok if the balance lives elsewhere)",
		info.what, k.chain, info.via, counter)
}

// node applies one CFG node to the state.
func (c *checker) node(n ast.Node, e *env) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.assign(s, e)
	case *ast.DeclStmt:
		c.decl(s, e)
	case *ast.ExprStmt:
		c.call(s.X, e)
	case *ast.DeferStmt:
		c.deferStmt(s, e)
	case *ast.GoStmt:
		c.escapes(s.Call, e)
	case *ast.ReturnStmt:
		c.ret(s, e)
	case *ast.RangeStmt:
		c.escapes(s.X, e)
		for _, lhs := range []ast.Expr{s.Key, s.Value} {
			if id, ok := lhs.(*ast.Ident); ok {
				c.unbind(id, e)
			}
		}
	case *ast.SendStmt:
		c.escapes(s.Chan, e)
		c.escapes(s.Value, e)
	case *ast.IncDecStmt:
		c.escapes(s.X, e)
	case *ast.BranchStmt, *ast.EmptyStmt:
	case ast.Expr:
		// Branch conditions, switch tags, case expressions. Acquire calls
		// here are handled by branch refinement, not the transfer.
		c.condExpr(s, e)
	}
}

// call classifies a call in statement position and applies its effect.
func (c *checker) call(x ast.Expr, e *env) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		c.escapes(x, e)
		return
	}
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		c.escapes(call, e)
		return
	}
	full := fn.FullName()
	switch {
	case releases[full] || consumes[full]:
		if k, ok := c.chainKey(recvOf(call)); ok {
			delete(e.held, k)
			for _, arg := range call.Args {
				c.escapes(arg, e)
			}
			return
		}
		c.escapes(call, e)
	case acquireAlways[full] != "":
		if k, ok := c.chainKey(recvOf(call)); ok && !analysis.Annotated(c.pass.Fset, c.ann, call.Pos()) {
			e.held[k] = &holderInfo{
				pos:      call.Pos(),
				what:     acquireAlways[full],
				via:      fn.Name(),
				deferred: e.defers[k],
			}
		}
		for _, arg := range call.Args {
			c.escapes(arg, e)
		}
	case acquireCond[full] != "":
		// Bare conditional acquire with the result dropped: postcheck's
		// finding, not a definite hold — stay silent here.
		for _, arg := range call.Args {
			c.escapes(arg, e)
		}
	default:
		c.escapes(call, e)
	}
}

// condExpr handles a bare expression node (condition, tag, case value):
// releases and consumes apply (the call runs whichever way the branch
// goes); conditional acquires are left to branch refinement.
func (c *checker) condExpr(x ast.Expr, e *env) {
	ast.Inspect(x, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(c.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		full := fn.FullName()
		if releases[full] || consumes[full] {
			if k, ok := c.chainKey(recvOf(call)); ok {
				delete(e.held, k)
			}
			return true
		}
		if acquireCond[full] != "" || acquireAlways[full] != "" {
			// The receiver chain mention is not an escape; refinement (or
			// the statement handler) models the acquire itself.
			for _, arg := range call.Args {
				c.escapes(arg, e)
			}
			return false
		}
		c.escapes(call, e)
		return false
	})
}

// assign handles acquire bindings, rebinding, and escapes.
func (c *checker) assign(a *ast.AssignStmt, e *env) {
	// ok := c.TryAcquire() / ok := qp.TryReserve(op)
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil {
				if what := acquireCond[fn.FullName()]; what != "" {
					id, isID := ast.Unparen(a.Lhs[0]).(*ast.Ident)
					k, trackable := c.chainKey(recvOf(call))
					if isID && id.Name != "_" && trackable &&
						!analysis.Annotated(c.pass.Fset, c.ann, call.Pos()) {
						for _, arg := range call.Args {
							c.escapes(arg, e)
						}
						if v := c.defOrUse(id); v != nil {
							e.binds[v] = bindInfo{k: k, pos: call.Pos(), what: what, via: fn.Name()}
						}
						return
					}
				}
			}
		}
	}
	for _, rhs := range a.Rhs {
		c.call(rhs, e)
	}
	for _, lhs := range a.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			c.unbind(id, e)
			continue
		}
		// q.reserve = true, m[k] = v: the holder's object mutated — the
		// balance may now live behind that store.
		c.escapes(lhs, e)
	}
}

// decl handles `var ok = c.TryAcquire()` and plain declarations.
func (c *checker) decl(d *ast.DeclStmt, e *env) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Names) == 1 && len(vs.Values) == 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil {
					if what := acquireCond[fn.FullName()]; what != "" {
						if k, trackable := c.chainKey(recvOf(call)); trackable &&
							!analysis.Annotated(c.pass.Fset, c.ann, call.Pos()) {
							if v, ok := c.pass.TypesInfo.Defs[vs.Names[0]].(*types.Var); ok {
								e.binds[v] = bindInfo{k: k, pos: call.Pos(), what: what, via: fn.Name()}
								continue
							}
						}
					}
				}
			}
		}
		for _, val := range vs.Values {
			c.call(val, e)
		}
	}
}

// deferStmt registers deferred releases and treats everything else as an
// escape.
func (c *checker) deferStmt(d *ast.DeferStmt, e *env) {
	if fn := analysis.Callee(c.pass.TypesInfo, d.Call); fn != nil {
		full := fn.FullName()
		if releases[full] || consumes[full] {
			if k, ok := c.chainKey(recvOf(d.Call)); ok {
				e.defers[k] = true
				if info, held := e.held[k]; held {
					info.deferred = true
				}
				for _, arg := range d.Call.Args {
					c.escapes(arg, e)
				}
				return
			}
		}
	}
	c.escapes(d.Call, e)
}

// ret transfers holders mentioned in results (and acquire-status booleans)
// to the caller, then leak-checks the survivors.
func (c *checker) ret(r *ast.ReturnStmt, e *env) {
	for _, res := range r.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok {
			if v := c.varOf(id); v != nil {
				if b, bound := e.binds[v]; bound {
					// The caller receives the acquisition status and with it
					// the balance obligation.
					delete(e.held, b.k)
				}
			}
		}
		c.escapes(res, e)
	}
	c.leakCheck(e)
}

// escapes drops every holder whose root variable is mentioned anywhere in
// n: once the object flows somewhere the pass cannot follow, its balance
// may too.
func (c *checker) escapes(n ast.Node, e *env) {
	if n == nil || len(e.held) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v := c.varOf(id)
		if v == nil {
			return true
		}
		for k := range e.held {
			if k.root == v {
				delete(e.held, k)
			}
		}
		return true
	})
}

// unbind clears the binding and any holders rooted at a reassigned
// variable.
func (c *checker) unbind(id *ast.Ident, e *env) {
	v := c.defOrUse(id)
	if v == nil {
		return
	}
	delete(e.binds, v)
	for k := range e.held {
		if k.root == v {
			delete(e.held, k)
		}
	}
}

// refine applies the truth of cond to the state on one branch edge.
func (c *checker) refine(e *env, cond ast.Expr, val bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			c.refine(e, x.X, !val)
		}
	case *ast.BinaryExpr:
		switch {
		case x.Op == token.LAND && val:
			c.refine(e, x.X, true)
			c.refine(e, x.Y, true)
		case x.Op == token.LOR && !val:
			c.refine(e, x.X, false)
			c.refine(e, x.Y, false)
		}
	case *ast.Ident:
		if v := c.varOf(x); v != nil {
			if b, ok := e.binds[v]; ok {
				c.apply(e, b, val)
			}
		}
	case *ast.CallExpr:
		fn := analysis.Callee(c.pass.TypesInfo, x)
		if fn == nil {
			return
		}
		what := acquireCond[fn.FullName()]
		if what == "" || analysis.Annotated(c.pass.Fset, c.ann, x.Pos()) {
			return
		}
		if k, ok := c.chainKey(recvOf(x)); ok {
			c.apply(e, bindInfo{k: k, pos: x.Pos(), what: what, via: fn.Name()}, val)
		}
	}
}

// apply records the outcome of one conditional acquire on an edge.
func (c *checker) apply(e *env, b bindInfo, acquired bool) {
	if acquired {
		e.held[b.k] = &holderInfo{pos: b.pos, what: b.what, via: b.via, deferred: e.defers[b.k]}
	} else {
		delete(e.held, b.k)
	}
}

// chainKey resolves a receiver expression to a trackable (root, chain)
// key: an identifier, or selectors over one ("q.credits").
func (c *checker) chainKey(expr ast.Expr) (key, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v := c.varOf(x); v != nil {
			return key{root: v, chain: x.Name}, true
		}
	case *ast.SelectorExpr:
		if k, ok := c.chainKey(x.X); ok {
			return key{root: k.root, chain: k.chain + "." + x.Sel.Name}, true
		}
	}
	return key{}, false
}

func (c *checker) varOf(id *ast.Ident) *types.Var {
	v, _ := c.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// defOrUse resolves an identifier whether it defines (:=) or uses a
// variable.
func (c *checker) defOrUse(id *ast.Ident) *types.Var {
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	return c.varOf(id)
}

// recvOf returns the receiver expression of a method call, or nil.
func recvOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}
