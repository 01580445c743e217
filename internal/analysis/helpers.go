package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WirePkgPath is the import path of the frame package whose allocating
// builders the hotalloc pass bans from hot paths.
const WirePkgPath = "gem/internal/wire"

// VerbsPkgPath is the import path of the verbs transport package whose
// posting results and PSN arithmetic the postcheck and psnsafe passes
// check.
const VerbsPkgPath = "gem/internal/core/verbs"

// VerbsMethod returns the (*types.Func).FullName of a pointer-receiver
// method on a verbs transport type, e.g. VerbsMethod("QP", "PostRead").
func VerbsMethod(recv, name string) string {
	return "(*" + VerbsPkgPath + "." + recv + ")." + name
}

// Callee resolves the statically-known function or method a call invokes,
// or nil for calls through func values and other dynamic targets.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// LineAnnotations returns, per file, the set of lines carrying a //gem:<tag>
// comment (e.g. tag "deterministic" or "alloc-ok"). A statement is considered
// annotated when the tag sits on its own line or the line directly above.
func LineAnnotations(fset *token.FileSet, files []*ast.File, tag string) map[string]map[int]bool {
	needle := "gem:" + tag
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, needle) {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// Annotated reports whether the node's line or the line above carries the
// annotation set returned by LineAnnotations.
func Annotated(fset *token.FileSet, ann map[string]map[int]bool, pos token.Pos) bool {
	p := fset.Position(pos)
	m := ann[p.Filename]
	return m != nil && (m[p.Line] || m[p.Line-1])
}
