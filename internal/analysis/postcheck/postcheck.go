// Package postcheck implements the gemlint pass that forbids dropping the
// boolean result of a verbs posting or admission call. Every Post*,
// TryReserve, TryAcquire, and Can* on the transport returns false when the
// op was refused — by credit gating or a full send queue — and a caller
// that ignores that false has silently lost an op: the deposit never lands,
// the read is never reposted, and no runtime check will ever notice. The
// pass flags three shapes:
//
//   - a bare expression statement (`qp.PostWrite(off, buf)`);
//   - an assignment to the blank identifier (`_ = qp.Repost(tok)`);
//   - a go/defer of such a call, whose result is unobservable by
//     construction.
//
// Completion consumers get the same treatment: QP.ReadResponse and
// QP.CompleteExact return a typed CQStatus (or the matched bool) that
// distinguishes progress, duplicates, and typed errors — discarding the
// whole result, or blanking exactly the status position of the tuple
// (`cqe, data, _ := qp.ReadResponse(pkt)`), silently conflates a NAK with a
// clean completion.
//
// Intentional fire-and-forget sites (a best-effort hint write whose loss is
// benign) are waived with //gem:post-ok on the call's line or the line
// above.
package postcheck

import (
	"fmt"
	"go/ast"

	"gem/internal/analysis"
)

// Analyzer is the postcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "postcheck",
	Doc:  "the boolean result of verbs Post*/TryReserve/Can* calls must be consumed",
	Run:  run,
}

// Tag is the waiver annotation.
const Tag = "post-ok"

// mustConsume maps the FullName of each refusable verbs call to the short
// label used in diagnostics.
var mustConsume = map[string]string{
	analysis.VerbsMethod("Credits", "TryAcquire"):      "Credits.TryAcquire",
	analysis.VerbsMethod("Credits", "CanAcquire"):      "Credits.CanAcquire",
	analysis.VerbsMethod("QP", "TryReserve"):           "QP.TryReserve",
	analysis.VerbsMethod("QP", "CanPost"):              "QP.CanPost",
	analysis.VerbsMethod("QP", "PostRead"):             "QP.PostRead",
	analysis.VerbsMethod("QP", "PostWrite"):            "QP.PostWrite",
	analysis.VerbsMethod("QP", "PostFetchAdd"):         "QP.PostFetchAdd",
	analysis.VerbsMethod("QP", "Repost"):               "QP.Repost",
	analysis.VerbsMethod("StripedQP", "CanPost"):       "StripedQP.CanPost",
	analysis.VerbsMethod("StripedQP", "PostRead"):      "StripedQP.PostRead",
	analysis.VerbsMethod("StripedQP", "PostWrite"):     "StripedQP.PostWrite",
	analysis.VerbsMethod("StripedQP", "Repost"):        "StripedQP.Repost",
	analysis.VerbsMethod("MirroredQP", "PostFetchAdd"): "MirroredQP.PostFetchAdd",
}

// statusResult describes a completion call whose multi-value return carries
// a CQ status (or matched bool) that must not be discarded.
type statusResult struct {
	label string
	idx   int // position of the status in the result tuple
	n     int // total results
}

// statusConsume maps completion consumers to their status position.
var statusConsume = map[string]statusResult{
	analysis.VerbsMethod("QP", "ReadResponse"):  {"QP.ReadResponse", 2, 3},
	analysis.VerbsMethod("QP", "CompleteExact"): {"QP.CompleteExact", 1, 2},
}

func run(pass *analysis.Pass) error {
	ann := analysis.LineAnnotations(pass.Fset, pass.Files, Tag)

	// target resolves expr to a must-consume call, or ("", nil).
	target := func(expr ast.Expr) (string, *ast.CallExpr) {
		call, ok := ast.Unparen(expr).(*ast.CallExpr)
		if !ok {
			return "", nil
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return "", nil
		}
		label, ok := mustConsume[fn.FullName()]
		if !ok {
			return "", nil
		}
		return label, call
	}

	// statusTarget resolves expr to a completion call whose status result
	// must be consumed, or (zero, nil).
	statusTarget := func(expr ast.Expr) (statusResult, *ast.CallExpr) {
		call, ok := ast.Unparen(expr).(*ast.CallExpr)
		if !ok {
			return statusResult{}, nil
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return statusResult{}, nil
		}
		sr, ok := statusConsume[fn.FullName()]
		if !ok {
			return statusResult{}, nil
		}
		return sr, call
	}

	flag := func(call *ast.CallExpr, format string, args ...any) {
		if analysis.Annotated(pass.Fset, ann, call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), "%s", fmt.Sprintf(format, args...))
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if label, call := target(s.X); call != nil {
					flag(call, "result of %s dropped: a false return is a refused op that is silently lost; handle it or annotate //gem:post-ok", label)
				}
				if sr, call := statusTarget(s.X); call != nil {
					flag(call, "typed CQE status of %s discarded: a NAK or cancel completes indistinguishably from success; handle it or annotate //gem:post-ok", sr.label)
				}
			case *ast.GoStmt:
				if label, call := target(s.Call); call != nil {
					flag(call, "result of %s discarded by go statement: a refusal can never be observed", label)
				}
				if sr, call := statusTarget(s.Call); call != nil {
					flag(call, "typed CQE status of %s discarded by go statement: an error completion can never be observed", sr.label)
				}
			case *ast.DeferStmt:
				if label, call := target(s.Call); call != nil {
					flag(call, "result of %s discarded by defer: a refusal can never be observed", label)
				}
				if sr, call := statusTarget(s.Call); call != nil {
					flag(call, "typed CQE status of %s discarded by defer: an error completion can never be observed", sr.label)
				}
			case *ast.AssignStmt:
				// Tuple shape: cqe, data, _ := qp.ReadResponse(pkt) — exactly
				// the status position blanked.
				if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
					if sr, call := statusTarget(s.Rhs[0]); call != nil && len(s.Lhs) == sr.n {
						if id, ok := ast.Unparen(s.Lhs[sr.idx]).(*ast.Ident); ok && id.Name == "_" {
							flag(call, "typed CQE status of %s assigned to the blank identifier: a NAK or cancel is silently conflated with success; handle it or annotate //gem:post-ok", sr.label)
						}
					}
					return true
				}
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, rhs := range s.Rhs {
					label, call := target(rhs)
					if call == nil {
						continue
					}
					if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						flag(call, "result of %s assigned to the blank identifier: a refused op is silently lost; handle it or annotate //gem:post-ok", label)
					}
				}
			}
			return true
		})
	}
	return nil
}
