// Command apresbench is the repository benchmark. It runs one named
// workload, for about --seconds, checks that the simulator's and the
// serving paths' outputs are correct, and prints every metric
// BENCHMARK.json declares as the last line of standard output:
//
//	apresbench --workload sim_single --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// per-call timing. With --trace 1 the benchmark drives its own copy of the
// simulator's serial run loop and times every call into the core, dram,
// noc and mem layers, plus direct calls into the service packages, and
// prints the per-layer metrics instead.
//
// Run it through run.sh, which builds this binary from the checkout
// first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input so a smoke test finishes in seconds.
	tiny bool
	// root is the checkout root the benchmark reads its inputs from and
	// scratch is its private, freshly emptied scratch directory.
	root    string
	scratch string

	attempted, failed int64
	// own and ownFailed count the workload's own operations, probe and
	// probeFailed the paths probe's. ok_frac keeps them apart, so that a
	// few failed workload operations are not diluted by thousands of
	// probe operations.
	own, ownFailed, probe, probeFailed int64
	// problems records each failed check so a run that fails says why.
	problems []string
	metrics  map[string]metric
	// info is printed as one JSON line before the result: sample counts,
	// scales and the simulated-statistics digest.
	info map[string]any
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation of the workload, failing it when
// ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.own++
	if !ok {
		r.ownFailed++
	}
	return r.count(ok, format, args...)
}

// probeCheck counts one attempted operation of the paths probe.
func (r *run) probeCheck(ok bool, format string, args ...any) bool {
	r.probe++
	if !ok {
		r.probeFailed++
	}
	return r.count(ok, format, args...)
}

func (r *run) count(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// rounds is how many rounds a workload runs: one per 10s of
// --seconds, at least two. A round of either workload (its own operation
// plus one round of the paths probe) takes 6-12s on the 2-vCPU host the
// benchmark was built on. The work is fixed by --seconds rather than
// measured against the clock, so every run of a setting does the same
// work whatever the host's speed.
func (r *run) rounds() int { return max(2, int(r.seconds/10)) }

var workloadsByName = map[string]func(*run) error{
	"sim_single": runSimSingle,
	"fig_sweep":  runFigSweep,
}

func main() {
	var r run
	flag.StringVar(&r.workload, "workload", "", "workload: sim_single | fig_sweep")
	flag.Int64Var(&r.seed, "seed", 1, "input seed")
	flag.Float64Var(&r.seconds, "seconds", 40, "how long a run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&r.tiny, "tiny", false, "shrink every input (smoke test)")
	flag.StringVar(&r.root, "root", ".", "checkout root")
	flag.StringVar(&r.scratch, "scratch", ".bench_build/scratch", "scratch directory (emptied first)")
	flag.Parse()
	r.trace = *traceFlag == 1
	if err := execute(&r, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apresbench:", err)
		os.Exit(1)
	}
}

// execute runs r and prints its result lines to w.
func execute(r *run, w io.Writer) error {
	fn, ok := workloadsByName[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	if r.seconds <= 0 {
		return fmt.Errorf("--seconds must be > 0")
	}
	if _, err := os.Stat(filepath.Join(r.root, "examples", "specs")); err != nil {
		return fmt.Errorf("checkout root %s lacks examples/specs: %w", r.root, err)
	}
	var err error
	if r.scratch, err = filepath.Abs(filepath.Join(r.scratch, r.workload)); err != nil {
		return err
	}
	if err := os.RemoveAll(r.scratch); err != nil {
		return err
	}
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.scratch)
	r.metrics = map[string]metric{}
	r.info = map[string]any{"workload": r.workload, "seed": r.seed, "trace": r.trace, "tiny": r.tiny}
	if err := fn(r); err != nil {
		return err
	}
	if r.attempted == 0 {
		return fmt.Errorf("%s attempted no operation", r.workload)
	}
	if len(r.problems) > 0 {
		r.info["problems"] = r.problems
	}
	if r.trace {
		// A traced run reports only per-layer metrics, which are all named
		// "<layer>.<figure>"; the traced paths probe also sets end-to-end
		// latencies, which a traced run must not report.
		for name := range r.metrics {
			if !strings.Contains(name, ".") {
				delete(r.metrics, name)
			}
		}
	} else {
		// The lower of the workload's and the probe's pass shares, each
		// over its own operations.
		r.set("ok_frac", min(passShare(r.own, r.ownFailed), passShare(r.probe, r.probeFailed)), "frac")
	}
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(info))
	out, err := json.Marshal(report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// passShare is the share of n operations that passed (1 when n is 0).
func passShare(n, failed int64) float64 {
	if n == 0 {
		return 1
	}
	return 1 - float64(failed)/float64(n)
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by the nearest-rank method, so a
// reported p99 is a latency some request actually had.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// peakRSSMB reads the benchmark's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// nproc is the worker count every workload is held to.
func nproc() int { return runtime.NumCPU() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
