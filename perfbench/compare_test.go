package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// syntheticLedger has, for every workload, every end-to-end metric that
// applies to it at median 100.
func syntheticLedger() *ledger {
	l := &ledger{Workloads: map[string]*workloadLedger{}}
	for wl := range workloads {
		w := &workloadLedger{Runs: 10, Metrics: map[string]metricStat{}}
		for _, d := range endToEnd {
			if d.appliesTo(wl) && d.Name != "fail_frac" {
				w.Metrics[d.Name] = metricStat{Unit: d.Unit, N: 10, Median: 100, Q1: 98, Q3: 102}
			}
		}
		w.Metrics["fail_frac"] = metricStat{Unit: "ratio", N: 10}
		l.Workloads[wl] = w
	}
	return l
}

// worsen returns a copy of l with one metric of one workload moved by
// frac of its median in the worse direction.
func worsen(l *ledger, wl, metric string, frac float64) *ledger {
	b, _ := json.Marshal(l)
	var c ledger
	json.Unmarshal(b, &c)
	m := c.Workloads[wl].Metrics[metric]
	sign := 1.0
	for _, d := range endToEnd {
		if d.Name == metric && d.Better == "higher" {
			sign = -1
		}
	}
	m.Median *= 1 + sign*frac
	c.Workloads[wl].Metrics[metric] = m
	return &c
}

// A gated metric worsened by 20% on one workload is flagged, and nothing
// else is. Where a metric's bound is wider than 20% (setup_s, ops_per_s,
// op_ms, serve_cold_p90_ms), it is flagged once it worsens by its bound.
func TestCompareFlagsTwentyPercentSlowdown(t *testing.T) {
	base := syntheticLedger()
	for _, d := range endToEnd {
		if d.Bound == 0 {
			continue
		}
		frac := max(0.20, d.Bound)
		for wl := range base.Workloads {
			if !d.appliesTo(wl) {
				continue
			}
			regs := compareLedgers(base, worsen(base, wl, d.Name, frac))
			if len(regs) != 1 || regs[0].Workload != wl || regs[0].Metric != d.Name {
				t.Errorf("%s %.0f%% worse on %s: got regressions %v, want exactly that one", d.Name, 100*frac, wl, regs)
			}
		}
	}
}

func TestCompareIgnoresWobbleInsideBounds(t *testing.T) {
	base := syntheticLedger()
	cur := base
	for wl, w := range base.Workloads {
		for metric := range w.Metrics {
			for _, d := range endToEnd {
				if d.Name == metric && d.Bound > 0 {
					cur = worsen(cur, wl, metric, 0.9*d.Bound)
				}
			}
		}
	}
	if regs := compareLedgers(base, cur); len(regs) != 0 {
		t.Errorf("every metric 0.9 of its bound worse: got regressions %v, want none", regs)
	}
	if regs := compareLedgers(cur, base); len(regs) != 0 {
		t.Errorf("every metric better: got regressions %v, want none", regs)
	}
}

func TestCompareFlagsAnyNewFailure(t *testing.T) {
	base := syntheticLedger()
	cur := worsen(base, "serve-mix", "fail_frac", 0)
	m := cur.Workloads["serve-mix"].Metrics["fail_frac"]
	m.Median = 0.001
	cur.Workloads["serve-mix"].Metrics["fail_frac"] = m
	if regs := compareLedgers(base, cur); len(regs) != 1 || regs[0].Metric != "fail_frac" {
		t.Errorf("fail_frac 0 -> 0.001: got regressions %v", regs)
	}
}

// setup_s has the largest bound, at most 25%, and every other gated
// metric a smaller one.
func TestBounds(t *testing.T) {
	if s := endToEnd[0]; s.Name != "setup_s" || s.Bound > 0.25 {
		t.Fatalf("endToEnd[0] = %+v, want setup_s with a bound of at most 0.25", s)
	}
	for _, d := range endToEnd[1:] {
		if d.Bound < 0 || d.Bound >= endToEnd[0].Bound || (d.Listed && d.Bound == 0) {
			t.Errorf("%s: bound %g outside [0, %g)", d.Name, d.Bound, endToEnd[0].Bound)
		}
	}
}

// BENCHMARK.json lists exactly the Listed metrics of the registry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, implemented %d", names, len(workloads))
	}
	type row struct {
		Name, Unit, Better string
		Bound              float64
	}
	var gotE, wantE, gotL, wantL []row
	for _, m := range bench.EndToEnd {
		gotE = append(gotE, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, d := range endToEnd {
		if d.Listed {
			wantE = append(wantE, row{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, m := range bench.PerLayer {
		gotL = append(gotL, row{m.Name, m.Unit, m.Better, 0})
	}
	for _, d := range perLayer {
		if d.Listed {
			wantL = append(wantL, row{d.Name, d.Unit, d.Better, 0})
		}
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end:\n got %v\nwant %v", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("per_layer:\n got %v\nwant %v", gotL, wantL)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50}, // overlaps b
		{ID: 4, Parent: 1, Name: "d", Start: 70, End: 80},
		{ID: 5, Parent: 4, Name: "e", Start: 72, End: 75},
	}}
	got := tr.selfTimes()
	want := []int64{50, 20, 30, 7, 3}
	for i, w := range want {
		if int64(got[i]) != w {
			t.Errorf("span %s self time %d, want %d", tr.spans[i].Name, got[i], w)
		}
	}
}
