package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"gem/internal/harness"
)

// TestRunPrintsInTableOrder runs a subset out of table order on three
// workers, so workers may finish out of order, and checks that stdout is
// exactly those tables' blocks of the full golden output, in table order.
func TestRunPrintsInTableOrder(t *testing.T) {
	golden, err := os.ReadFile("../../internal/harness/testdata/gem-bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	// Each table prints as "== <ID>: ..." through its trailing blank line.
	blocks := map[string]string{}
	for _, b := range strings.SplitAfter(string(golden), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(b, "== "), ":")
		blocks[id] = b
	}
	want := blocks["E2"] + blocks["E7"] + blocks["E8b"]

	var out bytes.Buffer
	if err := run(&out, io.Discard, []string{"-run", "E7,E2,E8B", "-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("stdout differs from the E2, E7 and E8b blocks of gem-bench.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSelectExperiments(t *testing.T) {
	table := []harness.Experiment{{ID: "E1"}, {ID: "E8A"}, {ID: "E11"}}
	ids := func(es []harness.Experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct {
		runList string
		want    string // selected ids in table order; "" means an error
		errHas  []string
	}{
		{runList: "all", want: "E1,E8A,E11"},
		{runList: "e11, E1", want: "E1,E11"},
		{runList: "E8a,E8a", want: "E8A"},
		// A typo next to a valid id used to be dropped silently.
		{runList: "E11,E31", errHas: []string{`"E31"`, "E1, E8A, E11"}},
		{runList: "", errHas: []string{`""`}},
	} {
		got, err := selectExperiments(tc.runList, table)
		if tc.want == "" {
			if err == nil {
				t.Errorf("-run=%q: selected %s, want an error", tc.runList, ids(got))
				continue
			}
			for _, s := range tc.errHas {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("-run=%q: error %q does not mention %s", tc.runList, err, s)
				}
			}
			continue
		}
		if err != nil || ids(got) != tc.want {
			t.Errorf("-run=%q: selected %s (err %v), want %s", tc.runList, ids(got), err, tc.want)
		}
	}
}
