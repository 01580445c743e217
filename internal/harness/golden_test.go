package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite testdata/*.golden and the EXPERIMENTS.md output block from this run")

const (
	goldenOutput  = "testdata/gem-bench.golden"
	goldenResults = "testdata/results.golden"
	experimentsMD = "../../EXPERIMENTS.md"

	docBegin = "<!-- BEGIN gem-bench output: go test ./internal/harness -run TestGoldenOutput -update rewrites this block -->\n"
	docEnd   = "<!-- END gem-bench output -->\n"
)

// TestGoldenOutput pins what the program says. It renders every experiment
// of the table gem-bench runs, at full settings, and compares the bytes to
// testdata/gem-bench.golden (exactly gem-bench's stdout); it compares the
// %+v of the E9–E13 results at seeds 1–3 to testdata/results.golden; and it
// checks that EXPERIMENTS.md's full-output block is the first file. A change
// that moves any of them either regenerates all three with -update and says
// why, or is a regression.
func TestGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the full E-series takes minutes under -race; CI runs this test uninstrumented")
	}
	var out bytes.Buffer
	for _, e := range Experiments {
		e.Run().Fprint(&out)
	}

	var results bytes.Buffer
	for _, seed := range []int64{1, 2, 3} {
		e9, e10, e11, e12, e13 := DefaultE9Config(), DefaultE10Config(),
			DefaultE11Config(), DefaultE12Config(), DefaultE13Config()
		e9.Seed, e10.Seed, e11.Seed, e12.Seed, e13.Seed = seed, seed, seed, seed, seed
		_, r9 := RunE9(e9)
		_, r10 := RunE10(e10)
		_, r11 := RunE11(e11)
		_, r12 := RunE12(e12)
		_, r13 := RunE13(e13)
		for _, r := range []struct {
			id  string
			res any
		}{{"E9", r9}, {"E10", r10}, {"E11", r11}, {"E12", r12}, {"E13", r13}} {
			fmt.Fprintf(&results, "%s seed %d: %+v\n", r.id, seed, r.res)
		}
	}

	checkGolden(t, goldenOutput, out.Bytes())
	checkGolden(t, goldenResults, results.Bytes())
	checkDocBlock(t, "```\n"+out.String()+"```\n")
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if d := firstDiff(string(got), string(want)); d != "" {
		t.Errorf("%s differs from this run (-update rewrites it):\n%s", path, d)
	}
}

// checkDocBlock compares the text between EXPERIMENTS.md's output markers
// with want, or splices want in under -update.
func checkDocBlock(t *testing.T, want string) {
	t.Helper()
	doc, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	i, j := strings.Index(s, docBegin), strings.Index(s, docEnd)
	if i < 0 || j < i {
		t.Fatalf("%s: output markers missing; want a block between\n%s%s", experimentsMD, docBegin, docEnd)
	}
	i += len(docBegin)
	if *update {
		if err := os.WriteFile(experimentsMD, []byte(s[:i]+want+s[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if d := firstDiff(want, s[i:j]); d != "" {
		t.Errorf("%s output block differs from this run (-update rewrites it):\n%s", experimentsMD, d)
	}
}

// firstDiff names the first line where got and want differ ("" if equal).
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for n := 0; ; n++ {
		var gl, wl string
		if n < len(g) {
			gl = g[n]
		}
		if n < len(w) {
			wl = w[n]
		}
		if gl != wl || n >= len(g) || n >= len(w) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", n+1, gl, wl)
		}
	}
}
