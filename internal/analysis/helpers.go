package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WirePkgPath is the import path of the frame/pool package whose builders
// and Pool methods anchor the ownership rules.
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

// BuiltinOwns is the ownership-transfer table for the repo's fabric entry
// points: calling one of these hands the first []byte argument to the callee,
// which becomes responsible for recycling it. The table is keyed by
// (*types.Func).FullName. //gem:owns annotations extend it; the standalone
// driver merges annotations found anywhere in the module.
var BuiltinOwns = map[string]bool{
	"(*" + WirePkgPath + ".Pool).Put":               true,
	"(*gem/internal/switchsim.Context).Emit":        true,
	"(*gem/internal/switchsim.Context).DropFrame":   true,
	"(*gem/internal/switchsim.Context).Recirculate": true,
	"(*gem/internal/switchsim.Switch).Inject":       true,
	"(*gem/internal/switchsim.Switch).Receive":      true,
	"(*gem/internal/switchsim.Switch).runPipeline":  true,
	"(*gem/internal/switchsim.Switch).enqueue":      true,
	"(*gem/internal/netsim.Port).Send":              true,
	"(gem/internal/netsim.Device).Receive":          true,
	"(*gem/internal/netsim.Host).Receive":           true,
	"(*gem/internal/rnic.NIC).Receive":              true,
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

// IsByteSlice reports whether t is []byte (after named-type unwrapping).
func IsByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// OwnedArgIndex returns the call-argument index corresponding to the first
// []byte parameter of fn, or -1. The receiver of a method call is not part
// of call.Args, so parameter indices line up with argument indices.
func OwnedArgIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsByteSlice(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// OwnsAnnotations scans the files of one package for functions and interface
// methods whose doc comment contains a //gem:owns line and returns their
// FullNames. The annotation marks an ownership-transferring fabric entry
// point: the callee owns the first []byte argument from the call on.
func OwnsAnnotations(info *types.Info, files []*ast.File) map[string]bool {
	owns := make(map[string]bool)
	mark := func(ident *ast.Ident) {
		if fn, ok := info.Defs[ident].(*types.Func); ok {
			owns[fn.FullName()] = true
		}
	}
	hasTag := func(doc *ast.CommentGroup) bool {
		if doc == nil {
			return false
		}
		for _, c := range doc.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "gem:owns") {
				return true
			}
		}
		return false
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if hasTag(d.Doc) {
					mark(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range iface.Methods.List {
						if hasTag(m.Doc) {
							for _, name := range m.Names {
								mark(name)
							}
						}
					}
				}
			}
		}
	}
	return owns
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

// MergeOwns layers the pass-level registry and local annotations over the
// builtin table.
func MergeOwns(pass *Pass) map[string]bool {
	owns := make(map[string]bool, len(BuiltinOwns))
	for k := range BuiltinOwns {
		owns[k] = true
	}
	for k := range pass.OwnsRegistry {
		owns[k] = true
	}
	for k := range OwnsAnnotations(pass.TypesInfo, pass.Files) {
		owns[k] = true
	}
	return owns
}
