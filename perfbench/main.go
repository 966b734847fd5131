// Command perfbench is the repository benchmark: three workloads that each
// drive one user-visible job of the polarstar tools through its public
// package API, in one process with at most two busy threads.
//
//	perfbench --workload sim-paper|serve-mix|search-aspl --seed N --seconds S --trace 0|1
//	perfbench ledger -out FILE REPORT.json...
//	perfbench compare -base LEDGER -new LEDGER
//	perfbench reference -out FILE REPORT.json...
//
// A run prints a table of every metric it measured and, as its last line,
// one JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end set of BENCHMARK.json, measured untraced;
// with --trace 1 the run repeats the workload with spans around every
// public call and reports the per-layer set. Each run also writes its full
// report (every metric, every failed check) under $PERFBENCH_OUT, and a
// traced run writes its spans there too. See README.md for the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// defaultSeed is the seed whose simulated statistics are pinned in
// reference.json.
const defaultSeed = 42

// run is the state one workload invocation fills in: the metrics it
// measured, how many operations it attempted, and every failed check.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tr       *tracer // nil in untraced runs

	mu        sync.Mutex // guards the fields below
	attempted int
	failures  []string
	metrics   map[string]float64
	// Outputs whose bits the default seed pins (see reference.go).
	outputs map[string]any
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records a failed operation or output check.
func (r *run) fail(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	r.mu.Lock()
	r.failures = append(r.failures, msg)
	r.mu.Unlock()
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// failed is the number of failed operations: one per failed check, and
// never more than were attempted.
func (r *run) failed() int { return min(len(r.failures), r.attempted) }

// deadline reports whether the run has measured for its --seconds since
// start.
func (r *run) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= r.seconds
}

var workloads = map[string]func(*run){
	"sim-paper":   simPaper,
	"serve-mix":   serveMix,
	"search-aspl": searchASPL,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "ledger":
			exitOn(ledgerMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		case "reference":
			exitOn(referenceMain(os.Args[2:]))
			return
		}
	}
	var (
		workload = flag.String("workload", "", "sim-paper, serve-mix or search-aspl")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: every generated input derives from it")
		seconds  = flag.Float64("seconds", 20, "measuring time of the run")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim-paper|serve-mix|search-aspl --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		metrics: map[string]float64{}, outputs: map[string]any{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	fn(r)
	if r.seed == defaultSeed {
		checkReference(r)
	}
	for _, name := range sortedKeys(r.metrics) {
		if v := r.metrics[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s has no finite value", name)
			r.metrics[name] = 0
		}
	}
	if r.attempted == 0 {
		r.fail("no operation attempted")
		r.attempted = 1
	}
	r.set("fail_frac", float64(r.failed())/float64(r.attempted))
	if err := writeOutputs(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(r)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is the full record of one run, written under $PERFBENCH_OUT and
// read back by the ledger subcommand.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Env       env                `json:"env"`
	Metrics   map[string]float64 `json:"metrics"`
	Outputs   map[string]any     `json:"outputs,omitempty"`
}

type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnv() env {
	return env{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH}
}

func (r *run) report() report {
	tr := 0
	if r.traced {
		tr = 1
	}
	return report{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: tr,
		Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed(),
		Failures: r.failures, Env: currentEnv(), Metrics: r.metrics, Outputs: r.outputs,
	}
}

// writeOutputs writes the run's report, and a traced run's spans, into
// $PERFBENCH_OUT (nothing when it is unset).
func writeOutputs(r *run) error {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep := r.report()
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, rep.Trace))
	if err := writeJSONFile(base+".json", rep); err != nil {
		return err
	}
	if r.tr != nil {
		return writeJSONFile(base+".spans.json", r.tr.spans)
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every measured metric as a table, then the result
// line: the BENCHMARK.json metric set of the run's mode, each one present
// (a per-layer metric of a layer this workload never calls reads 0).
func printResult(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v %s nproc=%d GOMAXPROCS=%d\n",
		r.workload, r.seed, r.seconds, r.traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, r.metrics[n], unitOf(n))
	}
	for _, f := range r.failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		if d.Listed {
			out[d.Name] = metricValue{r.metrics[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed(), out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// unitOf returns the registered unit of a metric name ("" if unknown).
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
