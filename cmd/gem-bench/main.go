// Command gem-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	gem-bench             # run everything
//	gem-bench -run E2,E3  # run a subset
//	gem-bench -parallel 4 # fan experiments across 4 workers
//
// Each experiment owns a private discrete-event engine, so experiments are
// independent and deterministic regardless of -parallel; output is printed
// in experiment order either way.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gem/internal/harness"
)

// selectExperiments returns the experiments runList names ("all", or
// comma-separated ids, case-insensitive), in table order. An id the table
// does not have is an error: a typo must not silently skip an experiment.
func selectExperiments(runList string, table []harness.Experiment) ([]harness.Experiment, error) {
	if runList == "all" {
		return table, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(runList, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	var selected []harness.Experiment
	for _, e := range table {
		if want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
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
		valid = append(valid, e.ID)
	}
	return nil, fmt.Errorf("unknown experiment id %s in -run=%q; valid ids: %s, or all",
		strings.Join(unknown, ", "), runList, strings.Join(valid, ", "))
}

func main() {
	// run has already reported any error on stderr.
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
}

// run is gem-bench with its streams and arguments passed in: tables go to
// stdout in table order, timing lines and errors to stderr.
func run(stdout, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("gem-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all",
		"comma-separated experiment ids (E1..E7, E8a..E8f, E9, E10, E11, E12, E13) or 'all'")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"number of experiments to run concurrently")
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected, err := selectExperiments(*runList, harness.Experiments)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return err
	}

	workers := min(max(*parallel, 1), len(selected))

	type result struct {
		out     bytes.Buffer
		elapsed time.Duration
	}
	// One single-use channel per experiment lets run stream results in
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
				table := selected[i].Run()
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
		stdout.Write(r.out.Bytes())
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.ID, r.elapsed.Round(time.Millisecond))
	}
	wg.Wait()
	return nil
}
