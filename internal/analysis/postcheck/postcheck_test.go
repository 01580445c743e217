package postcheck_test

import (
	"path/filepath"
	"testing"

	"gem/internal/analysis"
	"gem/internal/analysis/analysistest"
	"gem/internal/analysis/postcheck"
)

func TestPostcheck(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(root, "internal", "analysis", "testdata", "src", "postcheck")
	analysistest.Run(t, root, fixture, postcheck.Analyzer)
}
