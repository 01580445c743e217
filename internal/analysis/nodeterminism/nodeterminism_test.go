package nodeterminism_test

import (
	"path/filepath"
	"testing"

	"gem/internal/analysis"
	"gem/internal/analysis/analysistest"
	"gem/internal/analysis/nodeterminism"
)

func TestNodeterminism(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(root, "internal", "analysis", "testdata", "src", "nodeterminism")
	analysistest.Run(t, root, fixture, nodeterminism.Analyzer)
}
