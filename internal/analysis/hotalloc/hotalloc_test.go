package hotalloc_test

import (
	"path/filepath"
	"testing"

	"gem/internal/analysis"
	"gem/internal/analysis/analysistest"
	"gem/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(root, "internal", "analysis", "testdata", "src", "hotalloc")
	analysistest.Run(t, root, fixture, hotalloc.Analyzer)
}
