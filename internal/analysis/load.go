package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` for patterns in dir and decodes
// the JSON stream. Export data for every dependency (standard library
// included) comes out of the build cache, so this works without network
// access.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errBuf.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data files, the way
// vet does: no source re-checking of dependencies.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// NewTypesInfo allocates every map an analyzer might consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckTypes type-checks one package's files, collecting every type error
// with its file:line position instead of stopping at the first. The returned
// error lists up to ten positioned errors, one per line — a driver can print
// it directly and the user gets clickable locations rather than a bare
// message.
func CheckTypes(pkgPath string, fset *token.FileSet, files []*ast.File, info *types.Info, imp types.Importer) (*types.Package, error) {
	var errs []string
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err.Error()) },
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if len(errs) > 0 {
		const max = 10
		if extra := len(errs) - max; extra > 0 {
			errs = append(errs[:max], fmt.Sprintf("... and %d more errors", extra))
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", pkgPath, strings.Join(errs, "\n\t"))
	}
	if err != nil {
		// Errors the callback did not see (e.g. import cycles reported
		// directly); types.Error values still carry their position.
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return tpkg, nil
}

// Load type-checks the packages matching patterns (their non-test Go files)
// from source, resolving dependencies via export data, and returns them in a
// stable order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		info := NewTypesInfo()
		tpkg, err := CheckTypes(p.ImportPath, fset, files, info, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath: p.ImportPath, Dir: p.Dir,
			Fset: fset, Files: files, Types: tpkg, TypesInfo: info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// moduleExports caches the module-wide export map per module root so the
// fixture tests do not re-run `go list` for every analyzer.
var (
	moduleExportsMu sync.Mutex
	moduleExports   = make(map[string]map[string]string)
)

func exportsForModule(moduleRoot string) (map[string]string, error) {
	moduleExportsMu.Lock()
	defer moduleExportsMu.Unlock()
	if m, ok := moduleExports[moduleRoot]; ok {
		return m, nil
	}
	listed, err := goList(moduleRoot, "./...")
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	moduleExports[moduleRoot] = m
	return m, nil
}

// LoadDir type-checks one directory of Go files (an analysistest fixture,
// typically under a testdata tree the go tool itself ignores) against the
// module rooted at moduleRoot, so fixtures may import the real packages
// they seed violations for.
func LoadDir(moduleRoot, dir string) (*Package, error) {
	exports, err := exportsForModule(moduleRoot)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	pkgPath := "gemlint.fixture/" + filepath.Base(dir)
	info := NewTypesInfo()
	tpkg, err := CheckTypes(pkgPath, fset, files, info, exportImporter(fset, exports))
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", dir, err)
	}
	return &Package{
		PkgPath: pkgPath, Dir: dir,
		Fset: fset, Files: files, Types: tpkg, TypesInfo: info,
	}, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}
