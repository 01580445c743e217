// Package analysistest runs an analyzer over a fixture directory and checks
// its diagnostics against `// want "regexp"` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"gem/internal/analysis"
)

// wantRe matches one expectation inside a // want comment. Several may
// appear in the same comment: // want "first" "second".
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture directory, applies the analyzer, and reports any
// mismatch between diagnostics and the fixture's // want comments as test
// failures.
func Run(t *testing.T, moduleRoot, fixtureDir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(moduleRoot, fixtureDir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}

	// Collect expectations: file -> line -> pending matches.
	type fileLine struct {
		file string
		line int
	}
	expects := make(map[fileLine][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 || !strings.HasPrefix(strings.TrimLeft(strings.TrimPrefix(text, "//"), " \t"), "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
					pattern := m[1]
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pattern, err)
					}
					key := fileLine{pos.Filename, pos.Line}
					expects[key] = append(expects[key], &expectation{line: pos.Line, re: re, raw: pattern})
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fileLine{pos.Filename, pos.Line}
		matched := false
		for _, e := range expects[key] {
			if !e.hit && e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for key, es := range expects {
		for _, e := range es {
			if !e.hit {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, e.raw)
			}
		}
	}
}
