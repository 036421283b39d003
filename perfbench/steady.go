package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is the result line of one run.
type runOutput struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// quartiles matches Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// runSteady runs the workload n times in fresh processes, seeds
// seed..seed+n-1, and prints each end-to-end metric's median, quartiles
// and spread ((q3-q1)/median) against its bound in BENCHMARK.json.
func runSteady(workload string, seed int64, seconds float64, n int, benchPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var failedShare, steal []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		before := cpuTicks()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		steal = append(steal, stealShare(before, cpuTicks()))
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var ro runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ro); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !ro.Correct {
			return fmt.Errorf("seed %d: run reported incorrect answers", s)
		}
		failedShare = append(failedShare, float64(ro.Failed)/float64(ro.Attempted))
		for name, m := range ro.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", workload, s)
	}
	fmt.Printf("workload=%s runs=%d seconds=%g nproc=%d GOMAXPROCS=%d go=%s\n",
		workload, n, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("%-22s %12s %12s %12s %8s %8s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		xs := values[m.Name]
		if len(xs) == 0 {
			fmt.Printf("%-22s missing\n", m.Name)
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / q2
		verdict := "ok"
		switch {
		case m.Name == "setup_s":
			verdict = "not judged (cold set-up)"
		case spread > m.Bound:
			verdict = "OVER BOUND"
		case spread > m.Bound/3:
			verdict = "over a third of bound"
		}
		fmt.Printf("%-22s %12.4f %12.4f %12.4f %8.4f %8.3f %s\n", m.Name, q1, q2, q3, spread, m.Bound, verdict)
		fmt.Printf("%-22s %v\n", "", xs)
	}
	fmt.Printf("failed share: %v\n", failedShare)
	fmt.Printf("machine CPU time stolen by the hypervisor during each run (%%): %.1f\n", steal)
	return nil
}

// cpuTicks reads the machine-wide CPU counters from /proc/stat (nil where
// there is none). Steal time there is time this machine's virtual CPUs
// wanted to run but the hypervisor ran someone else: the main source of
// run-to-run spread on a shared host.
func cpuTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare returns the percentage of CPU time stolen between two
// samples (-1 when unknown).
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return -1
	}
	total := 0.0
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return -1
	}
	return 100 * (b[7] - a[7]) / total
}
