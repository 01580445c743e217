// Command bench is the repository's benchmark: five seeded testbed
// workloads, each measured end to end and layer by layer. See README.md.
//
//	go run -C bench . -workload fwd_64 -seed 1          # one workload
//	go run -C bench . -all                              # every workload, one process each
//	go run -C bench . -check                            # two sets, compared
//	bash bench/run.sh --workload fwd_64 --seed 1 --seconds 10 --trace 0   # the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// timedEpisodes is how many episodes a run times after its warm-up, unless
// -seconds sizes the run by the clock.
const timedEpisodes = 9

// buildDir is where the benchmark writes what it leaves behind (traces,
// child results): inside the working directory, and in .gitignore.
const buildDir = ".bench_build"

type options struct {
	workload   string
	seed       int64
	scale      float64
	seconds    float64
	trace      int
	all, check bool
	repeat     int
	out        string
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: fwd_64, incast_spill, faa_telemetry, lookup_zipf or reliable_mirror")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.scale, "scale", 1, "size of the workload relative to the benchmark's (tests use 0.02)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for this long (at least 3 timed episodes); 0 = exactly 9 timed episodes")
	flag.IntVar(&o.trace, "trace", 0, "1 = add a traced episode and the layer drivers, and report the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in its own process")
	flag.BoolVar(&o.check, "check", false, "run two sets back to back and compare them against the benchmark's bounds")
	flag.IntVar(&o.repeat, "repeat", 1, "with -all or -check: runs per workload in a set (medians are compared)")
	flag.StringVar(&o.out, "out", "", "also write the full result as JSON to this file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed episodes (relative paths land in the system temp dir, outside the repo)")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile at the end of the run (same rule)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// The simulation is one goroutine; a second P lets the collector run beside it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case o.check:
		err = runCheck(&o)
	case o.all:
		_, err = runSet(&o, os.Stdout)
	default:
		err = runOne(&o)
	}
	if err != nil {
		fail(1, err)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

// runOne measures one workload in this process: a warm-up episode, the timed
// episodes, and with -trace 1 a traced episode and the layer drivers.
func runOne(o *options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -h)", o.workload)
	}
	if _, err := runEpisode(w, o.seed, o.scale, false); err != nil { // warm-up
		return err
	}
	stopCPU, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return err
	}
	var eps []*episode
	for t0 := time.Now(); ; {
		ep, err := runEpisode(w, o.seed, o.scale, false)
		if err != nil {
			return err
		}
		eps = append(eps, ep)
		if o.seconds > 0 {
			if len(eps) >= 3 && time.Since(t0).Seconds() >= o.seconds {
				break
			}
		} else if len(eps) >= timedEpisodes {
			break
		}
	}
	stopCPU()
	r, err := assemble(w, o.seed, o.scale, eps)
	if err != nil {
		return err
	}

	var rep *traceReport
	if o.trace == 1 {
		ep, err := runEpisode(w, o.seed, o.scale, true)
		if err != nil {
			return err
		}
		if ep.digest != r.SimDigest {
			return fmt.Errorf("%s: traced sim_digest %s differs from untraced %s: tracing changed the simulation", w.name, ep.digest, r.SimDigest)
		}
		if rep, err = addTraced(r, w, ep); err != nil {
			return err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		if err := ep.tr.write(path, w.name, o.seed); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	if err := writeHeapProfile(o.memProfile); err != nil {
		return err
	}

	r.print(os.Stdout, w, rep)
	if o.out != "" {
		if err := writeJSON(o.out, r); err != nil {
			return err
		}
	}
	// The result line: end-to-end metrics, or with -trace 1 the per-layer ones.
	metrics := r.EndToEnd
	if o.trace == 1 {
		metrics = r.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for k, v := range metrics {
		line.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// profilePath keeps profiles out of the repository: a relative name lands in
// the system temp directory.
func profilePath(p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(os.TempDir(), p)
}

func startCPUProfile(p string) (stop func(), err error) {
	if p == "" {
		return func() {}, nil
	}
	f, err := os.Create(profilePath(p))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing CPU profile:", err)
		}
		fmt.Printf("CPU profile written to %s\n", f.Name())
	}, nil
}

func writeHeapProfile(p string) error {
	if p == "" {
		return nil
	}
	f, err := os.Create(profilePath(p))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("allocation profile written to %s\n", f.Name())
	return f.Close()
}

// runSet runs every workload (or the one named) o.repeat times, each run in
// a child process so that peak RSS is the workload's own, and returns the
// results by workload.
func runSet(o *options, progress *os.File) (map[string][]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	set := map[string][]*result{}
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		for i := 0; i < o.repeat; i++ {
			tmp := filepath.Join(buildDir, fmt.Sprintf("result-%s-%d.json", w.name, os.Getpid()))
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-scale", fmt.Sprint(o.scale),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-out", tmp)
			cmd.Stdout, cmd.Stderr = progress, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			data, err := os.ReadFile(tmp)
			if err != nil {
				return nil, err
			}
			os.Remove(tmp)
			r := new(result)
			if err := json.Unmarshal(data, r); err != nil {
				return nil, fmt.Errorf("%s: reading child result: %w", w.name, err)
			}
			set[w.name] = append(set[w.name], r)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("unknown workload %q (see -h)", o.workload)
	}
	if o.out != "" && !o.check {
		if err := writeJSON(o.out, set); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// runCheck runs two sets of the same code back to back and holds them to the
// benchmark's own rules: exact metrics and the digest identical, timed
// metrics within their bounds. Later issues use it for paired runs of a
// parent and a change (alternating the order is the caller's job).
func runCheck(o *options) error {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer devNull.Close()
	a, err := runSet(o, devNull)
	if err != nil {
		return err
	}
	b, err := runSet(o, devNull)
	if err != nil {
		return err
	}
	bad := compareSets(os.Stdout, a, b)
	if o.out != "" {
		if err := writeJSON(o.out, map[string]any{"first": a, "second": b}); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside the benchmark's bounds", bad)
	}
	fmt.Println("check: both sets agree within the benchmark's bounds")
	return nil
}

// compareSets prints both sets' values and their ratio for every metric, and
// returns how many broke their rule.
func compareSets(out *os.File, a, b map[string][]*result) (bad int) {
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(out, "%s  (seed %d, %d run(s) per set)\n", w.name, ra[0].Seed, len(ra))
		fmt.Fprintf(out, "  %-32s %14s %14s %8s  %s\n", "metric", "first", "second", "ratio", "rule")
		row := func(d metricDef, get func(*result) (value, bool)) {
			va, oka := medianOf(ra, get)
			vb, okb := medianOf(rb, get)
			if !oka || !okb {
				return
			}
			ratio := 1.0
			if va != 0 {
				ratio = vb / va
			}
			rule, ok := "reported", true
			switch {
			case d.exact:
				rule, ok = "identical", va == vb && identical(ra, get) && identical(rb, get)
			case d.bound > 0:
				rule = fmt.Sprintf("within %g%%", d.bound*100)
				diff := vb - va
				if diff < 0 {
					diff = -diff
				}
				ok = diff <= d.bound*min(va, vb) || (d.name == "setup_s" && diff <= setupFloorS)
			}
			mark := ""
			if !ok {
				mark = "  <-- FAIL"
				bad++
			}
			fmt.Fprintf(out, "  %-32s %14.6g %14.6g %8.4f  %s%s\n", d.name, va, vb, ratio, rule, mark)
		}
		for _, d := range endToEnd {
			d := d
			row(d, func(r *result) (value, bool) { v, ok := r.EndToEnd[d.name]; return v, ok })
		}
		row(metricDef{name: "failed_share", exact: true}, func(r *result) (value, bool) { return value{Value: r.failedShare()}, true })
		for _, d := range perLayer {
			d := d
			row(d, func(r *result) (value, bool) { v, ok := r.PerLayer[d.name]; return v, ok })
		}
		same := true
		for _, r := range append(append([]*result{}, ra...), rb...) {
			same = same && r.SimDigest == ra[0].SimDigest
		}
		mark := ""
		if !same {
			mark = "  <-- FAIL"
			bad++
		}
		fmt.Fprintf(out, "  %-32s %14s %14s %8s  identical%s\n\n", "sim_digest", ra[0].SimDigest, rb[0].SimDigest, "", mark)
	}
	return bad
}

func medianOf(rs []*result, get func(*result) (value, bool)) (float64, bool) {
	vs := make([]float64, 0, len(rs))
	for _, r := range rs {
		v, ok := get(r)
		if !ok {
			return 0, false
		}
		vs = append(vs, v.Value)
	}
	return median(vs), true
}

func identical(rs []*result, get func(*result) (value, bool)) bool {
	first, _ := get(rs[0])
	for _, r := range rs[1:] {
		if v, _ := get(r); v.Value != first.Value {
			return false
		}
	}
	return true
}
