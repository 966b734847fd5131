package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// ledger summarizes repeated runs: per workload and metric, the median and
// quartiles over the runs (each run reporting one value, itself a median
// over the run's operations) and the environment they ran in. End-to-end
// metrics come from untraced runs, per-layer ones from traced runs.
type ledger struct {
	Label     string                     `json:"label"`
	Env       env                        `json:"env"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

type workloadLedger struct {
	Runs       int                   `json:"runs"`
	TracedRuns int                   `json:"traced_runs"`
	FailedRuns int                   `json:"failed_runs"`
	Seeds      []int64               `json:"seeds"`
	Metrics    map[string]metricStat `json:"metrics"`
}

type metricStat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/|median|, the run-to-run spread a BENCHMARK.json bound caps.
	Spread float64 `json:"spread"`
}

func statOf(unit string, xs []float64) metricStat {
	q1, q2, q3 := quartiles(xs)
	spread := 0.0
	if q2 != 0 {
		spread = (q3 - q1) / math.Abs(q2)
	}
	return metricStat{Unit: unit, N: len(xs), Median: q2, Q1: q1, Q3: q3, Spread: spread}
}

// buildLedger folds run reports into a ledger.
func buildLedger(label string, reps []*report) (*ledger, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("no reports")
	}
	l := &ledger{Label: label, Env: reps[0].Env, Workloads: map[string]*workloadLedger{}}
	values := map[string]map[string][]float64{}
	for _, rep := range reps {
		if rep.Env != l.Env {
			return nil, fmt.Errorf("%s seed %d ran in %+v, the first report in %+v", rep.Workload, rep.Seed, rep.Env, l.Env)
		}
		w := l.Workloads[rep.Workload]
		if w == nil {
			w = &workloadLedger{Metrics: map[string]metricStat{}}
			l.Workloads[rep.Workload] = w
			values[rep.Workload] = map[string][]float64{}
		}
		w.Runs++
		if rep.Trace == 1 {
			w.TracedRuns++
		}
		if !rep.Correct {
			w.FailedRuns++
		}
		w.Seeds = append(w.Seeds, rep.Seed)
		for name, v := range rep.Metrics {
			if (rep.Trace == 1) == isPerLayer(name) {
				values[rep.Workload][name] = append(values[rep.Workload][name], v)
			}
		}
	}
	for wl, byName := range values {
		for name, xs := range byName {
			l.Workloads[wl].Metrics[name] = statOf(unitOf(name), xs)
		}
	}
	return l, nil
}

// ledgerMain: perfbench ledger [-label TEXT] -out FILE REPORT.json...
func ledgerMain(args []string) error {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	out := fs.String("out", "", "ledger file to write")
	label := fs.String("label", "", "what was measured, and on which machine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("usage: perfbench ledger [-label TEXT] -out FILE REPORT.json...")
	}
	var reps []*report
	for _, p := range fs.Args() {
		rep, err := readReport(p)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	l, err := buildLedger(*label, reps)
	if err != nil {
		return err
	}
	for _, wl := range sortedKeys(l.Workloads) {
		w := l.Workloads[wl]
		fmt.Printf("# %s: %d runs (%d traced, %d failed)\n", wl, w.Runs, w.TracedRuns, w.FailedRuns)
		for _, name := range sortedKeys(w.Metrics) {
			m := w.Metrics[name]
			fmt.Printf("%-44s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s\n",
				name, m.N, m.Median, m.Q1, m.Q3, m.Spread, m.Unit)
		}
	}
	return writeJSONFile(*out, l)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &l, nil
}

// regression is one end-to-end metric on one workload whose median
// worsened by its bound or more.
type regression struct {
	Workload, Metric string
	Base, New        float64
	Bound            float64
}

func (g regression) String() string {
	return fmt.Sprintf("%s %s: median %.6g -> %.6g (bound %.0f%%)", g.Workload, g.Metric, g.Base, g.New, 100*g.Bound)
}

// compareLedgers flags every end-to-end metric of every workload both
// ledgers measured whose new median is worse than the base median by its
// bound or more. fail_frac has no tolerance: any rise counts.
func compareLedgers(base, cur *ledger) []regression {
	var regs []regression
	for _, wl := range sortedKeys(base.Workloads) {
		bw, cw := base.Workloads[wl], cur.Workloads[wl]
		if cw == nil {
			continue
		}
		for _, d := range endToEnd {
			b, okB := bw.Metrics[d.Name]
			c, okC := cw.Metrics[d.Name]
			if !okB || !okC || !d.appliesTo(wl) || (d.Bound == 0 && d.Name != "fail_frac") {
				continue
			}
			worse := false
			switch {
			case d.Name == "fail_frac":
				worse = c.Median > b.Median
			case d.Better == "lower":
				worse = c.Median >= b.Median*(1+d.Bound)
			default:
				worse = c.Median <= b.Median*(1-d.Bound)
			}
			if worse {
				regs = append(regs, regression{wl, d.Name, b.Median, c.Median, d.Bound})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		return regs[i].Workload+regs[i].Metric < regs[j].Workload+regs[j].Metric
	})
	return regs
}

// compareMain: perfbench compare -base LEDGER -new LEDGER. Returns an
// error naming each regression.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "ledger of the parent commit")
	newPath := fs.String("new", "", "ledger of the change")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *newPath == "" {
		return fmt.Errorf("usage: perfbench compare -base LEDGER -new LEDGER")
	}
	base, err := readLedger(*basePath)
	if err != nil {
		return err
	}
	cur, err := readLedger(*newPath)
	if err != nil {
		return err
	}
	regs := compareLedgers(base, cur)
	if len(regs) == 0 {
		fmt.Println("no end-to-end metric worsened by its bound")
		return nil
	}
	var lines []string
	for _, g := range regs {
		lines = append(lines, g.String())
	}
	return fmt.Errorf("%d regression(s):\n  %s", len(regs), strings.Join(lines, "\n  "))
}
