package main

import (
	"context"
	"runtime"
	"time"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
	"polarstar/internal/traffic"
)

// simPoint is one pssim point of the sim-paper workload. cycles is the
// measurement window; warmup and drain scale with it as in psserve.
type simPoint struct {
	name    string
	spec    string
	mode    sim.RoutingMode
	pattern string
	load    float64
	cycles  int
}

// paperPoints: ps-iq (IQ(11,3), 1,064 routers) under UGAL/uniform and
// MIN/adversarial — the fig9/fig10 routings, the second one saturated —
// and one short MIN/uniform point on ps-iq-large (IQ(23,11), 13,272
// routers), which is past the engine's 2048-router channel-table limit.
var paperPoints = []simPoint{
	{"iq113-ugal-uniform", "ps-iq", sim.UGALMode, "uniform", 0.5, 1000},
	{"iq113-min-adversarial", "ps-iq", sim.MIN, "adversarial", 0.3, 1000},
	{"iq2311-min-uniform", "ps-iq-large", sim.MIN, "uniform", 0.3, 100},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. The benchmark collects garbage before each set-up and each timed
// operation, so the repetition itself neither adds collector work to a
// timing nor raises the peak RSS.
const setupReps = 9

func (p simPoint) params(seed int64, workers int) sim.Params {
	q := sim.DefaultParams(seed)
	q.Warmup, q.Measure, q.Drain = p.cycles/2, p.cycles, p.cycles*3/2
	q.Workers = workers
	return q
}

// simulated returns the cycles one run of the point simulates.
func (p simPoint) simulated() int64 {
	q := p.params(0, 1)
	return int64(q.Warmup + q.Measure + q.Drain)
}

func simPaper(r *run) {
	specNames := []string{"ps-iq", "ps-iq-large"}
	specs := map[string]*sim.Spec{}
	builds := map[string][]float64{}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		root := r.tr.start("bench.setup", 0, 0)
		var total time.Duration
		for _, name := range specNames {
			var err error
			d := r.tr.do("topo.new_spec."+name, root, 0, func(int) { specs[name], err = sim.NewSpec(name) })
			if err != nil {
				r.fail("NewSpec(%s): %v", name, err)
				return
			}
			total += d
			builds[name] = append(builds[name], d.Seconds())
		}
		r.tr.end(root)
		setups = append(setups, total.Seconds())
	}
	r.set("setup_s", median(setups))
	for _, name := range specNames {
		r.set("topo.new_spec_s."+name, median(builds[name]))
	}

	results, passWall := simPasses(r, specs)
	if results == nil {
		return
	}
	r.outputs["results"] = results
	if !r.traced {
		r.set("peak_rss_mb", peakRSSMiB())
		return
	}

	// Traced pass: RunPoint's public steps, in its order and with its
	// checks, each in a span, with Params.Metrics on. Same worker count as
	// the timed passes, so the overhead is that of tracing and metrics. As
	// in the timed passes, only the RunPoint calls are timed, not the
	// collections between them.
	var traced time.Duration
	for i, p := range paperPoints {
		r.attempt()
		runtime.GC()
		m := &obs.SimRun{}
		params := p.params(r.seed, 2)
		params.Metrics = m
		t0 := time.Now()
		res, steps, err := tracedRunPoint(r.tr, 0, 0, p.name, specs[p.spec], p.mode, p.pattern, p.load, params)
		traced += time.Since(t0)
		if err != nil {
			r.fail("traced %s: %v", p.name, err)
			continue
		}
		for _, s := range []string{"traffic.pattern", "sim.reachable", "route.routing", "sim.new_engine", "sim.run"} {
			r.set(s+"_s."+p.name, steps[s].Seconds())
		}
		if res != results[i] {
			r.fail("traced %s: Result with metrics on differs from the timed run", p.name)
		}
		stalls := m.StallCredit + m.StallChannel + m.StallInject + m.StallEject
		r.set("sim.generated."+p.name, float64(m.Generated))
		r.set("sim.delivered."+p.name, float64(m.Delivered))
		r.set("sim.stall_credit."+p.name, float64(m.StallCredit))
		r.set("sim.stall_channel."+p.name, float64(m.StallChannel))
		r.set("sim.stall_inject."+p.name, float64(m.StallInject))
		r.set("sim.stall_eject."+p.name, float64(m.StallEject))
		r.set("sim.stalls_per_delivered."+p.name, float64(stalls)/float64(max(m.Delivered, 1)))
		r.set("sim.latency_p99_cycles."+p.name, float64(m.Latency.Quantile(0.99)))
	}
	r.set("trace.overhead_frac", traced.Seconds()/passWall-1)
	setShares(r, r.tr.selfByLayer())

	// Worker and metrics invariance: one worker, metrics on, bit-equal.
	for i, p := range paperPoints {
		r.attempt()
		params := p.params(r.seed, 1)
		params.Metrics = &obs.SimRun{}
		res, err := sim.RunPoint(context.Background(), specs[p.spec], p.mode, p.pattern, p.load, params)
		if err != nil {
			r.fail("%s at one worker: %v", p.name, err)
		} else if res != results[i] {
			r.fail("%s: Result at one worker with metrics on differs from the timed run", p.name)
		}
	}
}

// simPasses runs every paper point with sim.RunPoint at two workers, pass
// after pass until the run has measured for its seconds. It returns the
// first pass's results (nil when a point failed) and the median pass wall
// time, and sets the end-to-end metrics.
func simPasses(r *run, specs map[string]*sim.Spec) ([]sim.Result, float64) {
	var (
		first        []sim.Result
		rates, paper []float64
		walls        []float64
	)
	start := time.Now()
	for pass := 0; pass == 0 || !r.deadline(start); pass++ {
		var iqCycles int64
		var iqSecs, wall float64
		for i, p := range paperPoints {
			r.attempt()
			runtime.GC()
			t0 := time.Now()
			res, err := sim.RunPoint(context.Background(), specs[p.spec], p.mode, p.pattern, p.load, p.params(r.seed, 2))
			secs := time.Since(t0).Seconds()
			wall += secs
			if err != nil {
				r.fail("%s: %v", p.name, err)
				return nil, 0
			}
			checkSimResult(r, p.name, res)
			if pass == 0 {
				first = append(first, res)
			} else if res != first[i] {
				r.fail("%s: pass %d Result differs from pass 0", p.name, pass)
			}
			if p.spec == "ps-iq" {
				iqCycles += p.simulated()
				iqSecs += secs
			} else {
				paper = append(paper, secs)
			}
		}
		rates = append(rates, float64(iqCycles)/iqSecs)
		walls = append(walls, wall)
	}
	r.set("sim_cycles_per_s", median(rates))
	r.set("paper_point_s", median(paper))
	r.set("ops_per_s", median(rates))
	r.set("op_ms", 1000*median(paper))
	return first, median(walls)
}

// checkSimResult checks what holds for every healthy point at any seed.
func checkSimResult(r *run, name string, res sim.Result) {
	switch {
	case res.Lost != 0 || res.Dropped != 0 || res.Retried != 0 || res.TerminatedEarly:
		r.fail("%s: healthy run reports faults: %+v", name, res)
	case !(res.DeliveredFrac > 0 && res.DeliveredFrac <= 1) || !(res.Throughput > 0) || res.AvgLatency <= 0:
		r.fail("%s: implausible Result %+v", name, res)
	}
}

// tracedRunPoint is sim.RunPoint split into its public steps, in the
// same order and with the same checks, each step in its own span under
// parent. It returns the Result and the duration of each step by name.
func tracedRunPoint(tr *tracer, parent int, req int64, label string, spec *sim.Spec, mode sim.RoutingMode, pattern string, load float64, params sim.Params) (sim.Result, map[string]time.Duration, error) {
	pt := tr.start("bench.point."+label, parent, req)
	defer tr.end(pt)
	steps := map[string]time.Duration{}
	var err error
	step := func(name string, f func()) {
		if err == nil {
			steps[name] = tr.do(name, pt, req, func(int) { f() })
		}
	}
	cfg := spec.Config()
	step("sim.validate", func() {
		if err = params.Validate(cfg); err == nil && params.Plan != nil {
			err = params.Plan.Validate(spec.Graph)
		}
	})
	var pat traffic.Pattern
	step("traffic.pattern", func() { pat, err = spec.Pattern(pattern, params.Seed) })
	if params.Plan.Empty() {
		step("sim.reachable", func() { err = sim.CheckReachable(spec.Graph, cfg, pat) })
	}
	var routing sim.Routing
	step("route.routing", func() {
		switch mode {
		case sim.UGALMode:
			routing = spec.UGALRouting(params.PacketFlits)
		case sim.UGALGMode:
			routing = spec.UGALGRouting(params.PacketFlits)
		case sim.MPMINMode, sim.MPUGALMode:
			base := spec.MinRouting()
			if mode == sim.MPUGALMode {
				base = spec.UGALRouting(params.PacketFlits)
			}
			routing, err = spec.MultiPathRouting(base, params.Lanes, params.PacketFlits)
		default:
			routing = spec.MinRouting()
		}
	})
	var eng *sim.Engine
	step("sim.new_engine", func() { eng = sim.NewEngine(params, spec.Graph, cfg, routing, pat) })
	var res sim.Result
	step("sim.run", func() { res, err = eng.RunContext(context.Background(), load) })
	return res, steps, err
}
