// Command gemlint runs the gem static-analysis suite: the frameown,
// nodeterminism, hotalloc, creditbal, psnsafe, and postcheck passes that
// enforce the frame-ownership, determinism, and verbs-transport contracts
// described in DESIGN.md.
//
// Standalone:
//
//	go run ./cmd/gemlint ./...
//	go run ./cmd/gemlint -json ./...                            # machine output
//	go run ./cmd/gemlint -baseline gemlint.baseline.json ./...  # fail on NEW findings only
//
// The baseline file is the -json output of a previous run, checked in at the
// repo root: CI runs with -baseline so known, triaged findings don't fail
// the build but any new finding does. Matching ignores line numbers (file,
// pass, message), so unrelated edits that shift lines don't churn it.
//
// As a vet tool (the unitchecker protocol: cmd/go invokes the tool once per
// package with a JSON config file):
//
//	go build -o /tmp/gemlint ./cmd/gemlint
//	go vet -vettool=/tmp/gemlint ./...
//
// Each pass is scoped to the packages whose contract it enforces; see
// analyzersFor. Diagnostics are printed as file:line:col: message [pass],
// and the exit status is nonzero when any are found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gem/internal/analysis"
	"gem/internal/analysis/creditbal"
	"gem/internal/analysis/frameown"
	"gem/internal/analysis/hotalloc"
	"gem/internal/analysis/nodeterminism"
	"gem/internal/analysis/postcheck"
	"gem/internal/analysis/psnsafe"
)

// frameownScope are the package prefixes whose code moves pooled frames.
var frameownScope = []string{
	"gem/internal/switchsim", "gem/internal/netsim",
	"gem/internal/rnic", "gem/internal/core",
	"gem/internal/faults",
}

// rootPackage is the facade package, matched exactly — listing "gem" in a
// prefix scope would cover the whole module. Its pressure/allocator layer
// sits on the frame path (Testbed.SendFrame) and feeds gem-bench's
// byte-identical reproducibility check, so both contracts apply.
const rootPackage = "gem"

// hotallocScope are the designated allocation-free hot-path packages. The
// verbs transport is on every primitive's post and completion path, so it
// carries the same zero-allocation contract as the wire layer (WQEs come
// from a freelist, reassembly reuses one scratch buffer). That covers the
// striping fan-out (striped.go) and the doorbell pending ring (doorbell.go)
// too: deferred posting runs once per pipeline pass, so a defer or flush
// that allocated would be as hot as a post. netsim is in for its two events
// per frame per link.
var hotallocScope = []string{
	"gem/internal/wire", "gem/internal/netsim", "gem/internal/switchsim",
	"gem/internal/rnic", "gem/internal/core/verbs",
}

// verbsScope are the packages that drive the verbs transport: everything
// that reserves credits, posts work, or compares PSNs. The credit-balance,
// post-result, and PSN-safety contracts apply here.
var verbsScope = []string{
	"gem/internal/core", "gem/internal/rnic",
}

// selfScope is the analysis tooling itself. The path-sensitive passes run
// over it as a crash-regression smoke check: the CFG builder must digest
// every control-flow shape in its own codebase (they are expected to stay
// silent — the tooling neither pools frames nor posts verbs).
var selfScope = []string{
	"gem/internal/analysis", "gem/cmd/gemlint",
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
	// go vet names test variants "pkg [pkg.test]"; scope by the base path.
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	var as []*analysis.Analyzer
	if pkgPath == rootPackage || inScope(pkgPath, frameownScope) || inScope(pkgPath, selfScope) {
		as = append(as, frameown.Analyzer)
	}
	if pkgPath == rootPackage ||
		strings.HasPrefix(pkgPath, "gem/internal/") && !inScope(pkgPath, nodeterminismExempt) {
		as = append(as, nodeterminism.Analyzer)
	}
	if inScope(pkgPath, hotallocScope) {
		as = append(as, hotalloc.Analyzer)
	}
	if pkgPath == rootPackage || inScope(pkgPath, verbsScope) || inScope(pkgPath, selfScope) {
		as = append(as, creditbal.Analyzer, psnsafe.Analyzer, postcheck.Analyzer)
	}
	return as
}

func main() {
	args := os.Args[1:]

	// Tool-ID and flag handshakes used by cmd/go when running as a vettool.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			fmt.Println("gemlint version gemlint-0.2")
			return
		case a == "-flags":
			fmt.Println("[]")
			return
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetTool(args[0]))
	}

	fs := flag.NewFlagSet("gemlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	baselinePath := fs.String("baseline", "", "JSON baseline `file` of known findings; exit nonzero only on findings not in it")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gemlint [-json] [-baseline file] <packages>  (e.g. gemlint ./...)")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	os.Exit(runStandalone(fs.Args(), *jsonOut, *baselinePath))
}

// diag pairs a diagnostic with its origin for sorted printing.
type diag struct {
	pos  token.Position
	msg  string
	pass string
}

func sortDiags(diags []diag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.msg < b.msg
	})
}

func printDiags(w io.Writer, diags []diag) {
	sortDiags(diags)
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s [%s]\n", d.pos, d.msg, d.pass)
	}
}

// finding is the JSON wire form of a diagnostic; a baseline file is simply
// the -json output of a previous run.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// baselineKey identifies a finding for baseline matching: line and column
// are excluded so edits elsewhere in a file don't invalidate the entry.
func baselineKey(f finding) string {
	return f.File + "\x00" + f.Pass + "\x00" + f.Message
}

func toFindings(diags []diag, root string) []finding {
	sortDiags(diags)
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, finding{File: file, Line: d.pos.Line, Col: d.pos.Column, Pass: d.pass, Message: d.msg})
	}
	return out
}

// loadBaseline reads a -json output file into a multiset of finding keys:
// N baselined copies of an identical finding tolerate exactly N occurrences.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fs []finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	m := make(map[string]int, len(fs))
	for _, f := range fs {
		m[baselineKey(f)]++
	}
	return m, nil
}

// applyBaseline splits findings into (new, suppressed-count).
func applyBaseline(fs []finding, baseline map[string]int) ([]finding, int) {
	budget := make(map[string]int, len(baseline))
	for k, n := range baseline {
		budget[k] = n
	}
	var fresh []finding
	suppressed := 0
	for _, f := range fs {
		k := baselineKey(f)
		if budget[k] > 0 {
			budget[k]--
			suppressed++
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh, suppressed
}

// runPass applies one analyzer to one loaded package.
func runPass(a *analysis.Analyzer, pkg *analysis.Package, owns map[string]bool, diags *[]diag) error {
	pass := &analysis.Pass{
		Analyzer:     a,
		Fset:         pkg.Fset,
		Files:        pkg.Files,
		Pkg:          pkg.Types,
		TypesInfo:    pkg.TypesInfo,
		OwnsRegistry: owns,
		Report: func(d analysis.Diagnostic) {
			*diags = append(*diags, diag{pos: pkg.Fset.Position(d.Pos), msg: d.Message, pass: a.Name})
		},
	}
	return a.Run(pass)
}

// runStandalone loads the requested packages from source and applies every
// in-scope pass, with //gem:owns annotations collected module-wide.
func runStandalone(patterns []string, jsonOut bool, baselinePath string) int {
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

	// The annotation registry spans every loaded package, so a pass
	// analyzing core sees that netsim.Port.Send owns its frame argument.
	owns := make(map[string]bool)
	for _, pkg := range pkgs {
		for name := range analysis.OwnsAnnotations(pkg.TypesInfo, pkg.Files) {
			owns[name] = true
		}
	}

	var diags []diag
	for _, pkg := range pkgs {
		for _, a := range analyzersFor(pkg.PkgPath) {
			if err := runPass(a, pkg, owns, &diags); err != nil {
				fmt.Fprintf(os.Stderr, "gemlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
		}
	}

	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		root = cwd
	}
	findings := toFindings(diags, root)

	if baselinePath != "" {
		baseline, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gemlint:", err)
			return 2
		}
		fresh, suppressed := applyBaseline(findings, baseline)
		if suppressed > 0 && !jsonOut {
			fmt.Fprintf(os.Stderr, "gemlint: %d baselined finding(s) suppressed\n", suppressed)
		}
		findings = fresh
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "gemlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(os.Stdout, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Pass)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the JSON the go command writes for unit checkers; field names
// match cmd/go/internal/work.vetConfig.
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// runVetTool implements the go vet unit-checker protocol: type-check the
// single package described by cfgPath against its dependencies' export data,
// run the in-scope passes, and always write the (empty) facts file cmd/go
// expects.
func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gemlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("gemlint\n"), 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "gemlint:", err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			fmt.Fprintln(os.Stderr, "gemlint:", err)
			return 2
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewTypesInfo()
	tpkg, err := analysis.CheckTypes(cfg.ImportPath, fset, files, info, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "gemlint: %v\n", err)
		return 2
	}

	pkg := &analysis.Package{
		PkgPath: cfg.ImportPath, Dir: cfg.Dir,
		Fset: fset, Files: files, Types: tpkg, TypesInfo: info,
	}
	// Unit-checker mode sees one package at a time, so cross-package
	// ownership knowledge comes from the builtin fabric table plus this
	// package's own annotations (MergeOwns inside each pass).
	var diags []diag
	for _, a := range analyzersFor(cfg.ImportPath) {
		if err := runPass(a, pkg, nil, &diags); err != nil {
			fmt.Fprintf(os.Stderr, "gemlint: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 2
		}
	}
	// The passes enforce contracts on non-test code only; test-variant
	// compilation units include _test.go files, which are exempt.
	kept := diags[:0]
	for _, d := range diags {
		if !strings.HasSuffix(d.pos.Filename, "_test.go") {
			kept = append(kept, d)
		}
	}
	diags = kept
	writeVetx()
	if len(diags) > 0 {
		printDiags(os.Stderr, diags)
		return 2
	}
	return 0
}
