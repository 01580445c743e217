// Command gem-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	gem-bench             # run everything at full settings
//	gem-bench -run E2,E3  # run a subset
//	gem-bench -run E10 -snapshot BENCH_PR4.json  # overload run + counters
//	gem-bench -quick      # reduced settings (seconds, for smoke tests)
//	gem-bench -parallel 4 # fan experiments across 4 workers
//
// Each experiment owns a private discrete-event engine, so experiments are
// independent and deterministic regardless of -parallel; output is printed
// in experiment order either way.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gem/internal/harness"
	"gem/internal/sim"
)

type experiment struct {
	id  string
	run func() *harness.Table
}

// selectExperiments returns the experiments runList names ("all", or
// comma-separated ids, case-insensitive), in table order. An id the table
// does not have is an error: a typo must not silently skip an experiment.
func selectExperiments(runList string, table []experiment) ([]experiment, error) {
	if runList == "all" {
		return table, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(runList, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	var selected []experiment
	for _, e := range table {
		if want[e.id] {
			selected = append(selected, e)
			delete(want, e.id)
		}
	}
	if len(want) == 0 {
		return selected, nil
	}
	var unknown, valid []string
	for id := range want {
		unknown = append(unknown, fmt.Sprintf("%q", id))
	}
	sort.Strings(unknown)
	for _, e := range table {
		valid = append(valid, e.id)
	}
	return nil, fmt.Errorf("unknown experiment id %s in -run=%q; valid ids: %s, or all",
		strings.Join(unknown, ", "), runList, strings.Join(valid, ", "))
}

func main() {
	runList := flag.String("run", "all",
		"comma-separated experiment ids (E1..E7, E8a..E8f, E9, E10, E11, E12, E13) or 'all'")
	quick := flag.Bool("quick", false, "reduced parameters for a fast smoke run")
	snapshot := flag.String("snapshot", "",
		"write the E10/E13 runs' aggregated robustness counters as JSON to this file")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"number of experiments to run concurrently")
	flag.Parse()

	var (
		resMu  sync.Mutex
		e10Res *harness.E10Result
		e13Res *harness.E13Result
	)

	experiments := []experiment{
		{"E1", func() *harness.Table {
			cfg := harness.DefaultE1Config()
			if *quick {
				cfg.Window = 1 * sim.Millisecond
				cfg.SweepStart, cfg.SweepStep = 33, 1
				cfg.DrainFrames = 800
			}
			t, _ := harness.RunE1(cfg)
			return t
		}},
		{"E2", func() *harness.Table {
			cfg := harness.DefaultE2Config()
			if *quick {
				cfg.Rounds = 15
			}
			t, _ := harness.RunE2(cfg)
			return t
		}},
		{"E3", func() *harness.Table {
			cfg := harness.DefaultE3Config()
			if *quick {
				cfg.Window = 1 * sim.Millisecond
				cfg.Sizes = []int{64, 256, 1024}
			}
			t, _ := harness.RunE3(cfg)
			return t
		}},
		{"E4", func() *harness.Table {
			cfg := harness.DefaultE4Config()
			if *quick {
				cfg.BurstMBs = []int{12, 25}
			}
			t, _ := harness.RunE4(cfg)
			return t
		}},
		{"E5", func() *harness.Table {
			cfg := harness.DefaultE5Config()
			if *quick {
				cfg.Mappings, cfg.Packets = 50_000, 15_000
				cfg.CacheEntries = 4096
			}
			t, _ := harness.RunE5(cfg)
			return t
		}},
		{"E6", func() *harness.Table {
			cfg := harness.DefaultE6Config()
			if *quick {
				cfg.Packets = 15_000
			}
			t, _ := harness.RunE6(cfg)
			return t
		}},
		{"E7", func() *harness.Table {
			t, _ := harness.RunE7(harness.DefaultE7Config())
			return t
		}},
		{"E8A", func() *harness.Table {
			cfg := harness.DefaultE8aConfig()
			if *quick {
				cfg.Window = 1 * sim.Millisecond
				cfg.Batches = []uint64{1, 32, 512}
			}
			t, _ := harness.RunE8a(cfg)
			return t
		}},
		{"E8B", func() *harness.Table {
			cfg := harness.DefaultE8bConfig()
			if *quick {
				cfg.Packets = 100
			}
			t, _ := harness.RunE8b(cfg)
			return t
		}},
		{"E8C", func() *harness.Table {
			cfg := harness.DefaultE8cConfig()
			if *quick {
				cfg.Updates = 500
			}
			t, _ := harness.RunE8c(cfg)
			return t
		}},
		{"E8D", func() *harness.Table {
			cfg := harness.DefaultE8dConfig()
			if *quick {
				cfg.Window = 1 * sim.Millisecond
				cfg.CapsGbps = []float64{0, 1}
			}
			t, _ := harness.RunE8d(cfg)
			return t
		}},
		{"E8E", func() *harness.Table {
			cfg := harness.DefaultE8eConfig()
			if *quick {
				cfg.Window = 4 * sim.Millisecond
			}
			t, _ := harness.RunE8e(cfg)
			return t
		}},
		{"E8F", func() *harness.Table {
			cfg := harness.DefaultE8fConfig()
			if *quick {
				cfg.Window = 6 * sim.Millisecond
				cfg.CrashAt = 2 * sim.Millisecond
			}
			t, _ := harness.RunE8f(cfg)
			return t
		}},
		// E9 and E10 are already short runs (microsecond-scale scenarios);
		// -quick changes nothing.
		{"E9", func() *harness.Table {
			t, _ := harness.RunE9(harness.DefaultE9Config())
			return t
		}},
		{"E10", func() *harness.Table {
			t, res := harness.RunE10(harness.DefaultE10Config())
			resMu.Lock()
			e10Res = &res
			resMu.Unlock()
			return t
		}},
		{"E11", func() *harness.Table {
			t, _ := harness.RunE11(harness.DefaultE11Config())
			return t
		}},
		{"E12", func() *harness.Table {
			t, _ := harness.RunE12(harness.DefaultE12Config())
			return t
		}},
		{"E13", func() *harness.Table {
			t, res := harness.RunE13(harness.DefaultE13Config())
			resMu.Lock()
			e13Res = &res
			resMu.Unlock()
			return t
		}},
	}

	selected, err := selectExperiments(*runList, experiments)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(selected) {
		workers = len(selected)
	}

	type result struct {
		out     bytes.Buffer
		elapsed time.Duration
	}
	// One single-use channel per experiment lets main stream results in
	// experiment order while workers complete out of order.
	results := make([]chan *result, len(selected))
	for i := range results {
		results[i] = make(chan *result, 1)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				table := selected[i].run()
				r := &result{elapsed: time.Since(start)}
				table.Fprint(&r.out)
				results[i] <- r
			}
		}()
	}
	go func() {
		for i := range selected {
			jobs <- i
		}
		close(jobs)
	}()

	for i, e := range selected {
		r := <-results[i]
		os.Stdout.Write(r.out.Bytes())
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.id, r.elapsed.Round(time.Millisecond))
	}
	wg.Wait()

	if *snapshot != "" {
		if e10Res == nil && e13Res == nil {
			fmt.Fprintln(os.Stderr, "-snapshot requires E10 or E13 in the run set")
			os.Exit(2)
		}
		doc := struct {
			GeneratedAt string
			E10         *harness.E10Result `json:",omitempty"`
			E13         *harness.E13Result `json:",omitempty"`
		}{GeneratedAt: time.Now().UTC().Format(time.RFC3339), E10: e10Res, E13: e13Res}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*snapshot, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[snapshot written to %s]\n", *snapshot)
	}
}
