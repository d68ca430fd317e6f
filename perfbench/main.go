// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock budget, checks every run's output,
// and prints one JSON result as its last line of standard output.
//
//	perfbench --workload fig11-online --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// benchmark tracing. With --trace 1 it instead drives each layer's
// public functions with spans around the calls and reports per-layer
// metrics. It must run from the root of a checkout of the repository:
// it reads the online package's golden files and writes scratch files
// under .bench_build/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// scratchDir holds the benchmark's temporary files, inside the checkout.
const scratchDir = ".bench_build/tmp"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one invocation's metrics and failures.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int64
	problems          []string
	// lateStamps counts the capture records of the known stamp race
	// (restampLate) over every checked run.
	lateStamps int64
	metrics    map[string]metric
}

// set records a metric.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check or error costing ops operations.
func (b *bench) fail(ops int64, format string, args ...any) {
	b.failed += ops
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner; the runner chooses
// between the end-to-end and the traced measurement from b.trace.
var workloads = map[string]func(*bench) error{
	"fig11-online":    runOnline,
	"room16-observed": runOnline,
	"offline-replay":  runOffline,
}

func main() {
	workload := flag.String("workload", "", "workload name: fig11-online, room16-observed or offline-replay")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "wall-clock seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		metrics:  map[string]metric{},
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, err := environment()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		os.Exit(1)
	}
	if !b.trace {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, p := range b.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	fmt.Printf("late_stamps %d (known defect, counted, not failed)\n", b.lateStamps)
	fmt.Printf("failed_ratio %g (%d of %d operations)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the allocation count and bytes between two MemStats.
func memDelta(before, after *runtime.MemStats) (allocs, bytes float64) {
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// tempDir makes a fresh directory under scratchDir; the caller removes it.
func tempDir(prefix string) (string, error) {
	abs, err := filepath.Abs(scratchDir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, prefix)
}
