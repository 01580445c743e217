package main

import (
	"go/token"
	"strings"
	"testing"
)

func analyzerNames(pkgPath string) map[string]bool {
	names := make(map[string]bool)
	for _, a := range analyzersFor(pkgPath) {
		names[a.Name] = true
	}
	return names
}

func TestAnalyzersForScopes(t *testing.T) {
	cases := []struct {
		pkg  string
		want []string
		not  []string
	}{
		{"gem/internal/core", []string{"nodeterminism", "psnsafe", "postcheck"}, []string{"hotalloc"}},
		{"gem/internal/core/verbs", []string{"hotalloc", "psnsafe", "postcheck"}, nil},
		{"gem/internal/rnic", []string{"hotalloc", "psnsafe", "postcheck"}, nil},
		{"gem/internal/wire", []string{"hotalloc", "nodeterminism"}, []string{"psnsafe", "postcheck"}},
		{"gem/internal/switchsim", []string{"hotalloc", "nodeterminism"}, []string{"psnsafe", "postcheck"}},
		{"gem", []string{"nodeterminism", "psnsafe", "postcheck"}, []string{"hotalloc"}},
		// The tooling is exempt from every contract: it neither posts verbs
		// nor feeds gem-bench's output.
		{"gem/internal/analysis/psnsafe", nil, []string{"nodeterminism", "hotalloc", "psnsafe", "postcheck"}},
		{"gem/cmd/gemlint", nil, []string{"nodeterminism", "hotalloc", "psnsafe", "postcheck"}},
		{"gem/cmd/gem-bench", nil, []string{"nodeterminism", "hotalloc", "psnsafe", "postcheck"}},
	}
	for _, c := range cases {
		got := analyzerNames(c.pkg)
		for _, w := range c.want {
			if !got[w] {
				t.Errorf("analyzersFor(%q): missing %s (got %v)", c.pkg, w, got)
			}
		}
		for _, n := range c.not {
			if got[n] {
				t.Errorf("analyzersFor(%q): unexpected %s", c.pkg, n)
			}
		}
	}
}

func TestPrintDiagsRelativizesAndSorts(t *testing.T) {
	diags := []diag{
		{pos: token.Position{Filename: "/repo/b.go", Line: 2, Column: 1}, msg: "second", pass: "p"},
		{pos: token.Position{Filename: "/repo/a.go", Line: 9, Column: 3}, msg: "first", pass: "p"},
		{pos: token.Position{Filename: "/elsewhere/c.go", Line: 1, Column: 1}, msg: "outside", pass: "p"},
	}
	var out strings.Builder
	printDiags(&out, "/repo", diags)
	want := "/elsewhere/c.go:1:1: outside [p]\na.go:9:3: first [p]\nb.go:2:1: second [p]\n"
	if out.String() != want {
		t.Errorf("got\n%s\nwant (files outside the root stay absolute)\n%s", out.String(), want)
	}
}
