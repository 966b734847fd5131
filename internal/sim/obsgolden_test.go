package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"polarstar/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const obsGoldenFile = "testdata/obs_golden.json"

// obsGoldenCase is one configuration of the artifact matrix.
type obsGoldenCase struct {
	spec    string
	mode    RoutingMode
	load    float64
	plan    string // "", "plan" or "plan-delay"
	metrics bool
}

func (c obsGoldenCase) name() string {
	plan := c.plan
	if plan == "" {
		plan = "healthy"
	}
	met := "metrics-off"
	if c.metrics {
		met = "metrics-on"
	}
	return fmt.Sprintf("%s/%s/%.1f/%s/%s", c.spec, c.mode, c.load, plan, met)
}

func obsGoldenCases() []obsGoldenCase {
	var cases []obsGoldenCase
	add := func(spec string, mode RoutingMode, load float64, plans ...string) {
		for _, plan := range plans {
			for _, metrics := range []bool{false, true} {
				cases = append(cases, obsGoldenCase{spec, mode, load, plan, metrics})
			}
		}
	}
	// Saturated runs, where most attempts stall on credits or busy
	// channels, healthy and under faults.
	add("ps-iq-small", MPMINMode, 0.8, "", "plan")
	add("hx-small", MIN, 0.8, "", "plan")
	add("hx-small", UGALMode, 0.8, "", "plan-delay")
	add("hx-small", MPUGALMode, 0.8, "plan")
	// Fault plans below saturation, with and without a repair window.
	add("ps-iq-small", MIN, 0.3, "plan", "plan-delay")
	add("ps-iq-small", MPUGALMode, 0.3, "plan-delay")
	add("hx-small", MPUGALMode, 0.3, "", "plan-delay")
	return cases
}

// obsGoldenPlan kills a link and a router and brings both back, so the
// run sees every event kind while traffic is flowing.
func obsGoldenPlan(spec *Spec) *Plan {
	const deadRouter = 3
	var edge [2]int
	for _, e := range spec.Graph.Edges() {
		if e[0] != deadRouter && e[1] != deadRouter {
			edge = e
			break
		}
	}
	return &Plan{Events: []FaultEvent{
		{Cycle: 180, Kind: LinkDown, U: edge[0], V: edge[1]},
		{Cycle: 220, Kind: RouterDown, U: deadRouter},
		{Cycle: 300, Kind: LinkUp, U: edge[0], V: edge[1]},
		{Cycle: 380, Kind: RouterUp, U: deadRouter},
	}}
}

// obsGoldenRun runs one case and returns the Result and the SHA-256 of
// its %#v rendering followed by the marshaled SimRun ("null" when the
// run is unobserved).
func obsGoldenRun(t *testing.T, c obsGoldenCase, workers int) (Result, string) {
	t.Helper()
	spec := MustNewSpec(c.spec)
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 150, 300, 450
	p.Workers = workers
	if c.plan != "" {
		p.Plan = obsGoldenPlan(spec)
		if c.plan == "plan-delay" {
			p.RepairDelay = 60
		}
	}
	var run *obs.SimRun
	if c.metrics {
		run = &obs.SimRun{}
		p.Metrics = run
		p.MetricsInterval = 50
	}
	res, err := RunPoint(context.Background(), spec, c.mode, "uniform", c.load, p)
	if err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte(fmt.Sprintf("%#v", res)), b...))
	return res, hex.EncodeToString(sum[:])
}

// TestGoldenObsArtifacts pins the Result and the metrics artifact of
// each (spec, routing, load, fault plan, metrics) case bit for bit, at
// one worker and, for observed cases, at four. Observing a run must not change its Result,
// so the metrics-on and metrics-off runs of a case must also agree.
// Regenerate with `go test ./internal/sim -run TestGoldenObsArtifacts
// -update` only for a deliberate change of engine semantics.
func TestGoldenObsArtifacts(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(obsGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	plain := map[string]Result{}
	for _, c := range obsGoldenCases() {
		res, sum := obsGoldenRun(t, c, 1)
		got[c.name()] = sum
		// An observed hash covers the Result too, and the unobserved twin
		// must match that Result, so one multi-worker run per observed
		// case covers both.
		if c.metrics {
			if _, sum4 := obsGoldenRun(t, c, 4); sum4 != sum {
				t.Errorf("%s: workers=4 artifact differs from workers=1", c.name())
			}
		}
		if !*updateGolden && want[c.name()] != sum {
			t.Errorf("%s: artifact hash %s, want %s", c.name(), sum, want[c.name()])
		}
		key := c
		key.metrics = false
		if !c.metrics {
			plain[key.name()] = res
		} else if res != plain[key.name()] {
			t.Errorf("%s: Result %+v differs from the unobserved run %+v", c.name(), res, plain[key.name()])
		}
	}
	if len(want) != len(got) && !*updateGolden {
		t.Errorf("golden file holds %d cases, the matrix has %d", len(want), len(got))
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(obsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
