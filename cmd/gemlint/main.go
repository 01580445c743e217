// Command gemlint runs the gem static-analysis suite: the psnsafe,
// postcheck, hotalloc, and nodeterminism passes that enforce the
// verbs-transport, allocation and determinism contracts described in
// DESIGN.md §6. Each pass catches seeded bugs no test does (the mutation
// table in DESIGN.md §6.1).
//
// Run it from anywhere in the module:
//
//	go run ./cmd/gemlint ./...
//
// It loads the named packages from source and scopes each pass to the
// packages whose contract it enforces; see analyzersFor. Findings print as
// file:line:col: message [pass], and the exit status is 1 when there is
// any: there is no baseline, so every finding fails CI.
package main

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gem/internal/analysis"
	"gem/internal/analysis/hotalloc"
	"gem/internal/analysis/nodeterminism"
	"gem/internal/analysis/postcheck"
	"gem/internal/analysis/psnsafe"
)

// rootPackage is the facade package, matched exactly — listing "gem" in a
// prefix scope would cover the whole module. It drives the verbs transport
// and feeds gem-bench's byte-identical reproducibility check, so the verbs
// and determinism contracts apply.
const rootPackage = "gem"

// hotallocScope are the designated allocation-free hot-path packages. The
// verbs transport is on every primitive's post and completion path, so it
// carries the same zero-allocation contract as the wire layer (WQEs come
// from a freelist, reassembly reuses one scratch buffer). That covers the
// striping fan-out (striped.go) too: it sits on every striped post. netsim
// is in for its two events per frame per link.
var hotallocScope = []string{
	"gem/internal/wire", "gem/internal/netsim", "gem/internal/switchsim",
	"gem/internal/rnic", "gem/internal/core/verbs",
}

// verbsScope are the packages that drive the verbs transport: everything
// that reserves credits, posts work, or compares PSNs. The post-result and
// PSN-safety contracts apply here.
var verbsScope = []string{
	"gem/internal/core", "gem/internal/rnic",
}

// nodeterminismExempt are internal packages that are developer tooling, not
// simulation code: their output does not feed gem-bench's byte-identical
// reproducibility check.
var nodeterminismExempt = []string{
	"gem/internal/analysis",
}

func inScope(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// analyzersFor returns the passes that apply to pkgPath.
func analyzersFor(pkgPath string) []*analysis.Analyzer {
	var as []*analysis.Analyzer
	if pkgPath == rootPackage ||
		strings.HasPrefix(pkgPath, "gem/internal/") && !inScope(pkgPath, nodeterminismExempt) {
		as = append(as, nodeterminism.Analyzer)
	}
	if inScope(pkgPath, hotallocScope) {
		as = append(as, hotalloc.Analyzer)
	}
	if pkgPath == rootPackage || inScope(pkgPath, verbsScope) {
		as = append(as, psnsafe.Analyzer, postcheck.Analyzer)
	}
	return as
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: gemlint <packages>  (e.g. gemlint ./...)")
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:]))
}

// run loads the requested packages from source and applies every in-scope
// pass to each. It prints each finding as file:line:col: message [pass],
// sorted, and returns 1 when there is any, 2 when loading fails.
func run(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemlint:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemlint:", err)
		return 2
	}

	var diags []diag
	for _, pkg := range pkgs {
		for _, a := range analyzersFor(pkg.PkgPath) {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					diags = append(diags, diag{pos: pkg.Fset.Position(d.Pos), msg: d.Message, pass: a.Name})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "gemlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
		}
	}

	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		root = cwd
	}
	printDiags(os.Stdout, root, diags)
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// diag is one finding with the pass that reported it.
type diag struct {
	pos  token.Position
	msg  string
	pass string
}

// printDiags writes diags sorted by file, line and message, one per line as
// file:line:col: message [pass], with files under root shown relative to it.
func printDiags(w io.Writer, root string, diags []diag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].msg < diags[j].msg
	})
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintf(w, "%s: %s [%s]\n", d.pos, d.msg, d.pass)
	}
}
