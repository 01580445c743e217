package psnsafe_test

import (
	"path/filepath"
	"testing"

	"gem/internal/analysis"
	"gem/internal/analysis/analysistest"
	"gem/internal/analysis/psnsafe"
)

func TestPsnsafe(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(root, "internal", "analysis", "testdata", "src", "psnsafe")
	analysistest.Run(t, root, fixture, psnsafe.Analyzer)
}
