// Package nodeterminism implements the gemlint pass that keeps simulation
// code byte-for-byte reproducible: no wall clock, no global rand source, no
// output derived from map iteration order. gem-bench runs experiments in
// parallel and diffs their output against sequential runs, so any of these
// sneaking into internal/ silently breaks a load-bearing guarantee.
//
// Rules:
//
//   - time.Now / Since / Until / Sleep / After / Tick / NewTimer / NewTicker /
//     AfterFunc are forbidden — simulations run on the virtual clock
//     (sim.Engine.Now / Schedule).
//   - package-level math/rand and math/rand/v2 functions are forbidden
//     (they draw from the process-global source); constructing a seeded
//     *rand.Rand via rand.New(rand.NewSource(seed)) and calling its methods
//     is the sanctioned pattern.
//   - ranging over a map is flagged unless the statement carries a
//     //gem:deterministic annotation asserting that the loop's effect is
//     order-independent. Sort the keys instead.
package nodeterminism

import (
	"go/ast"
	"go/types"

	"gem/internal/analysis"
)

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock time, global rand, and map-order-dependent loops in simulation code",
	Run:  run,
}

// forbiddenTime are the wall-clock entry points of package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRand are the package-level constructors of math/rand{,/v2} that do
// not touch the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	detOK := analysis.LineAnnotations(pass.Fset, pass.Files, "deterministic")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				fn := analysis.Callee(pass.TypesInfo, node)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				// Only package-level functions: methods on *rand.Rand and
				// time.Duration/time.Time values are deterministic.
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if forbiddenTime[fn.Name()] {
						pass.Reportf(node.Pos(),
							"wall-clock time.%s in simulation code; use the virtual clock (sim.Engine)", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !allowedRand[fn.Name()] {
						pass.Reportf(node.Pos(),
							"package-level %s.%s draws from the global source; use a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[node.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if analysis.Annotated(pass.Fset, detOK, node.Pos()) {
					return true
				}
				pass.Reportf(node.Pos(),
					"map iteration order is nondeterministic; sort the keys or annotate //gem:deterministic if order cannot affect output")
			}
			return true
		})
	}
	return nil
}
