// Package hotalloc implements the gemlint pass that keeps the designated
// hot-path packages allocation-free: the per-frame code in internal/wire,
// internal/switchsim, and internal/rnic runs once per simulated packet, and
// PR 1's zero-allocation wire path regresses the moment someone reaches for
// an allocating convenience.
//
// Rules:
//
//   - calling a legacy allocating wire builder (Build* without the Into
//     suffix) is forbidden; use the pooled Build*Into form;
//   - fmt.Sprintf / Sprint / Sprintln are forbidden except as a panic
//     argument, inside String/Error/Format/GoString methods, or under a
//     //gem:alloc-ok annotation (cold paths: construction, fatal errors);
//   - fresh-slice appends — append([]T(nil), ...) or append([]T{}, ...) —
//     allocate a new backing array per call and are forbidden without a
//     //gem:alloc-ok annotation; preallocate or use a pooled buffer;
//   - a func literal or bound method value passed to (*sim.Engine).Schedule
//     or ScheduleAt allocates a closure per event; per-frame and per-packet
//     sites use ScheduleCall with a static function and the owner as recv
//     (//gem:alloc-ok waives cold sites: one timer per pause frame, say).
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"gem/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating builders, Sprintf, fresh-slice appends, and per-event closures in hot-path packages",
	Run:  run,
}

// sprintFuncs are the fmt allocators flagged outside cold paths.
var sprintFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
}

// coldMethods may format freely: they only run for debugging output.
var coldMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
}

func run(pass *analysis.Pass) error {
	allocOK := analysis.LineAnnotations(pass.Fset, pass.Files, "alloc-ok")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cold := coldMethods[fd.Name.Name]
			checkBody(pass, fd.Body, cold, allocOK)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, cold bool, allocOK map[string]map[int]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanic(pass, call) {
			// Sprintf as a panic argument is fine: the program is dying.
			return false
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if analysis.Annotated(pass.Fset, allocOK, call.Pos()) {
			return true
		}
		name := fn.Name()
		switch {
		case fn.Pkg().Path() == analysis.WirePkgPath &&
			strings.HasPrefix(name, "Build") && !strings.HasSuffix(name, "Into"):
			pass.Reportf(call.Pos(),
				"allocating builder wire.%s in hot path; use wire.%sInto with a pool", name, name)
		case fn.Pkg().Path() == "fmt" && sprintFuncs[name] && !cold:
			pass.Reportf(call.Pos(),
				"fmt.%s allocates in hot path; annotate //gem:alloc-ok if this is a cold path", name)
		case fn.Pkg().Path() == simPkgPath && closureSchedulers[fn.FullName()]:
			if shape := closureShape(pass, call.Args[len(call.Args)-1]); shape != "" {
				pass.Reportf(call.Pos(),
					"%s passed to sim.Engine.%s allocates a closure per event; use ScheduleCall with a static function, or annotate //gem:alloc-ok if this is a cold path", shape, name)
			}
		}
		return true
	})

	// Fresh-slice appends are a separate walk: append is a builtin, so the
	// callee-based dispatch above never sees it.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 {
			return true
		}
		if !isFreshSlice(call.Args[0]) {
			return true
		}
		if analysis.Annotated(pass.Fset, allocOK, call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"fresh-slice append allocates a new backing array per call; preallocate, use a pooled buffer, or annotate //gem:alloc-ok")
		return true
	})
}

// simPkgPath is the import path of the event engine; closureSchedulers are
// its methods that take the event body as a func().
const simPkgPath = "gem/internal/sim"

var closureSchedulers = map[string]bool{
	"(*" + simPkgPath + ".Engine).Schedule":   true,
	"(*" + simPkgPath + ".Engine).ScheduleAt": true,
}

// closureShape names the allocating shape of a func-typed argument: a func
// literal, or a method value bound to its receiver. A plain func variable or
// a top-level function is neither and yields "".
func closureShape(pass *analysis.Pass, arg ast.Expr) string {
	switch x := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return "func literal"
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.MethodVal {
			return "bound method value"
		}
	}
	return ""
}

// isFreshSlice reports whether expr is []T(nil) or []T{} — the copy idiom
// that allocates on every call.
func isFreshSlice(expr ast.Expr) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		_, isSlice := x.Type.(*ast.ArrayType)
		return isSlice && len(x.Elts) == 0
	case *ast.CallExpr:
		// []byte(nil) is a conversion with an array-type callee.
		if _, isSlice := x.Fun.(*ast.ArrayType); isSlice && len(x.Args) == 1 {
			if id, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// isPanic reports whether call is the builtin panic.
func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
