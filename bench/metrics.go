package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gem"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count). It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// summarize is what a timed metric reports: the median of the episodes, with
// the sample count and range. With nine episodes no tail percentile is
// supportable and none is claimed.
func summarize(vs []float64, unit string) value {
	if len(vs) == 0 {
		return value{Unit: unit}
	}
	return value{Value: median(vs), Unit: unit, N: len(vs), Min: slices.Min(vs), Max: slices.Max(vs)}
}

// percentileNs returns the p-th percentile (nearest rank) of sorted samples.
func percentileNs(sorted []int32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank])
}

// histQuantileNs reads quantile q off a log2 latency histogram, placing the
// rank linearly inside its bucket. A bucket floor alone would jump by 2× when
// the rank crosses a bucket edge between seeds.
func histQuantileNs(h *gem.LatencyHist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var before float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if before+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = float64(int64(1)<<(i-1)), float64(int64(1)<<i)
			}
			hi = min(hi, float64(h.MaxNs)+1)
			return lo + (rank-before)/float64(c)*(hi-lo)
		}
		before += float64(c)
	}
	return float64(h.MaxNs)
}

// simDigest is FNV-64a over every counted layer metric, the final simulated
// clock and a checksum of remote memory. A change to the simulator alone must
// leave it identical; so must tracing.
func simDigest(counted map[string]float64, clockNs int64, remote uint64) string {
	names := make([]string, 0, len(counted))
	for k := range counted {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(counted[k], 'g', -1, 64))
	}
	fmt.Fprintf(h, "clock=%d\nremote=%016x\n", clockNs, remote)
	return fmt.Sprintf("%016x", h.Sum64())
}

// hostRecord travels with every output: a timing means nothing without it.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func thisHost() hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     commit(),
	}
}

// commit is the checked-out revision, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident size, so that each episode reports its own peak and the
// run their median. Over a whole process VmHWM is a maximum: one episode in
// which the collector fell behind would decide it. Where the kernel refuses,
// every episode reports the process-wide mark instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}
