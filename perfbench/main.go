// Command perfbench is the repository's benchmark: one process that builds
// a workload from a seed, drives it through the system's public layers in a
// closed loop, checks every answer against its own computation, and prints
// one JSON line of metrics.
//
//	go run . --workload engine --seed 1 --seconds 20 --trace 0
//	go run . --steady 10 --workload engine --seconds 20
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced windows, and the per-layer metrics
// come from the traced ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the process's start for setup_s: package
// initialisation runs before main, so the variable is set as early as Go
// code can run.
var processStart = time.Now()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*Env) (*Report, error){
	"engine":      runEngine,
	"serve-churn": runServeChurn,
	"routed":      runRouted,
}

// Env is what every workload function receives.
type Env struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Workdir string // scratch space (store data dirs, trace files)
	Clients int    // closed-loop client goroutines
}

// Report is one workload run's outcome.
type Report struct {
	Attempted, Failed int
	// Errors lists answer-check and cross-check failures; any entry makes
	// the run incorrect.
	Errors []string
	E2E    map[string]float64
	Layer  map[string]float64
}

func (r *Report) fail(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"batch_queries_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"live_heap_mb", "MiB"},
}

func main() {
	var (
		workload = flag.String("workload", "", "engine, serve-churn or routed")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run (whole rounds, at least this long)")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for data dirs and trace output")
		steady   = flag.Int("steady", 0, "steadiness mode: run the workload this many times with seeds seed..seed+n-1 and report spreads")
		bench    = flag.String("benchmark-json", "BENCHMARK.json", "bounds file read by --steady")
	)
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*workload, *seed, *seconds, *steady, *bench); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want engine, serve-churn or routed)\n", *workload)
		os.Exit(2)
	}
	wd, err := filepath.Abs(*workdir)
	if err == nil {
		err = os.MkdirAll(wd, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := &Env{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workdir: wd, Clients: runtime.NumCPU()}
	rep, err := drive(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d nproc=%d GOMAXPROCS=%d clients=%d go=%s\n",
		*workload, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), env.Clients, runtime.Version())
	out := map[string]any{
		"correct":   len(rep.Errors) == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metricsJSON(rep, env.Trace),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsJSON(rep *Report, trace bool) map[string]metricJSON {
	out := map[string]metricJSON{}
	if !trace {
		for _, m := range e2eUnits {
			out[m.name] = metricJSON{rep.E2E[m.name], m.unit}
		}
		return out
	}
	for _, m := range layerMetrics {
		out[m.name] = metricJSON{rep.Layer[m.name], m.unit}
	}
	return out
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMiB forces collections and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
