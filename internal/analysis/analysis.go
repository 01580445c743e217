// Package analysis is a minimal, dependency-free clone of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are reported through the Pass.
//
// The x/tools module is deliberately not imported — the repo builds with
// the standard library only — but the shapes match the upstream API
// closely enough that the passes under internal/analysis/... could be
// ported to a *analysis.Analyzer with mechanical edits.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics ("psnsafe").
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run applies the pass to one package.
	Run func(*Pass) error
}

// Pass is the interface between the driver and one analyzer applied to one
// package: the syntax, the type information, and the report sink.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
