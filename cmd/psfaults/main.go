// psfaults reproduces the fault-tolerance experiment of §11.2 (Fig 14):
// network diameter and average shortest-path length under random link
// failures, reported for the median-disconnection-ratio trial. With
// -traffic it additionally runs the cycle-level simulator on each
// degraded topology, reporting delivered fraction and latency at a fixed
// offered load.
//
// Usage:
//
//	psfaults -spec ps-iq -trials 100
//	psfaults -spec df -trials 20
//	psfaults -spec ps-iq-small -traffic -load 0.3 -mode ugal
//
// With -resilience it instead scripts live link failures *during* each
// run and compares routing modes' sustained throughput as the failure
// count grows (multipath lanes vs MIN vs UGAL):
//
//	psfaults -spec ps-iq-43 -resilience -counts 0,2,4,8 -rmodes min,mp-min
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"polarstar/internal/faults"
	"polarstar/internal/obs"
	"polarstar/internal/plot"
	"polarstar/internal/prof"
	"polarstar/internal/sim"
)

func main() {
	var (
		specName = flag.String("spec", "ps-iq", "topology spec (see pssim)")
		trials   = flag.Int("trials", 100, "random failure scenarios (paper: 100)")
		seed     = flag.Int64("seed", 1, "seed")
		svgOut   = flag.String("svg", "", "also write the APL-vs-failures curve as an SVG file")
		traffic  = flag.Bool("traffic", false, "simulate traffic on each degraded topology instead of structural stats")
		load     = flag.Float64("load", 0.3, "offered load for -traffic (flits/endpoint/cycle)")
		mode     = flag.String("mode", "min", "routing for -traffic: min, ugal")
		pattern  = flag.String("pattern", "uniform", "traffic pattern for -traffic")
		workers  = flag.Int("workers", 0, "engine shard workers per -traffic run (0: one per core)")

		resilience = flag.Bool("resilience", false, "compare routing modes under scripted live link failures (throughput vs failure count)")
		counts     = flag.String("counts", "0,1,2,4,6,8", "failure counts for -resilience (comma-separated links killed)")
		rmodes     = flag.String("rmodes", "min,ugal,mp-min", "routing curves for -resilience: min, ugal, ugal-g, mp-min, mp-ugal")
		lanes      = flag.Int("lanes", 0, "spanning-tree lanes of the mp-* modes (0: default 3)")
		killCycle  = flag.Int64("kill-cycle", 0, "cycle the -resilience failures land (0: end of warmup)")
		rMTBF      = flag.Int64("resilience-mtbf", 0, "spread -resilience failures this many cycles apart (0: one batch)")
		rRepair    = flag.Int64("resilience-repair", 0, "repair each -resilience failure after this many cycles (0: permanent)")
		rTarget    = flag.Int("target-lanes", 0, "draw -resilience failures from the tree edges of the first N multipath lanes (0: uniform over all links)")
		rDelay     = flag.Int64("repair-delay", 0, "table-reconvergence stall in cycles after each -resilience fault event (0: instant repair)")

		faultPlan    = flag.String("fault-plan", "", "live fault plan file applied during each -traffic run")
		mtbf         = flag.Float64("mtbf", 0, "additionally generate random live link failures with this mean-cycles-between-failures (0: none)")
		faultRepair  = flag.Int64("fault-repair", 0, "repair delay in cycles for -mtbf failures (0: permanent)")
		retries      = flag.Int("retries", 0, "max source retries per packet under live faults (0: default policy)")
		retryBackoff = flag.Int64("retry-backoff", 0, "base retry backoff in cycles, doubling per retry (0: default)")
		retryCap     = flag.Int64("retry-cap", 0, "retry backoff cap in cycles (0: default)")
		pktMaxAge    = flag.Int64("pkt-max-age", 0, "per-packet age limit in cycles under live faults (0: default; <0: unlimited)")
		met          = obs.Flags()
	)
	flag.Parse()
	defer prof.Start()()

	spec, err := sim.NewSpec(*specName)
	if err != nil {
		fatal(err)
	}
	if *resilience {
		rc := resilienceFlags{counts: *counts, rmodes: *rmodes, lanes: *lanes,
			killCycle: *killCycle, mtbf: *rMTBF, repair: *rRepair, target: *rTarget, delay: *rDelay,
			retries: *retries, backoff: *retryBackoff, cap: *retryCap, maxAge: *pktMaxAge}
		runResilience(spec, *pattern, *load, *seed, *workers, rc, met)
		return
	}
	if *traffic {
		lf := liveFaults{plan: *faultPlan, mtbf: *mtbf, repair: *faultRepair,
			retries: *retries, backoff: *retryBackoff, cap: *retryCap, maxAge: *pktMaxAge}
		runTraffic(spec, *mode, *pattern, *load, *seed, *workers, lf, met)
		return
	}
	if *faultPlan != "" || *mtbf > 0 {
		fatal(fmt.Errorf("-fault-plan/-mtbf inject live faults into the simulator; combine them with -traffic"))
	}
	var hosts faults.Hosts
	if spec.Hosts != nil {
		hosts = spec.Hosts // indirect topologies: endpoint routers only
	}
	var run *obs.Run
	var fm *obs.FaultSweep
	if met.Enabled() {
		run = obs.NewRun("psfaults")
		run.Manifest.Spec = spec.Name
		run.Manifest.Seed = *seed
		fm = &obs.FaultSweep{Spec: spec.Name}
		run.Faults = fm
	}
	var tr faults.Trial
	var trErr error
	prof.Task(func() {
		tr, trErr = faults.MedianTrial(spec.Graph, hosts, *trials, *seed, faults.DefaultFracs, fm)
	}, "phase", "faults", "spec", spec.Name)
	if trErr != nil {
		fatal(trErr)
	}
	fmt.Printf("# %s: %d routers, %d links; median disconnection ratio %.3f (%d trials)\n",
		spec.Name, spec.Graph.N(), spec.Graph.M(), tr.DisconnectionRatio, *trials)
	fmt.Printf("%-10s %-10s %-10s %-10s\n", "failfrac", "diameter", "avgpath", "connected")
	for _, p := range tr.Curve {
		if p.Connected {
			fmt.Printf("%-10.2f %-10d %-10.3f %-10v\n", p.FailFrac, p.Diameter, p.AvgPath, p.Connected)
		} else {
			fmt.Printf("%-10.2f %-10s %-10s %-10v\n", p.FailFrac, "-", "-", p.Connected)
		}
	}

	if *svgOut != "" {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("%s under random link failures", spec.Name),
			XLabel: "fraction of failed links",
			YLabel: "hops",
		}
		var xs, apl, diam []float64
		for _, p := range tr.Curve {
			if !p.Connected {
				break
			}
			xs = append(xs, p.FailFrac)
			apl = append(apl, p.AvgPath)
			diam = append(diam, float64(p.Diameter))
		}
		chart.Add("avg path length", xs, apl)
		chart.Add("diameter", xs, diam)
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := chart.WriteSVG(f); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote %s\n", *svgOut)
	}
	if met.Enabled() {
		if err := met.Write(run); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote metrics %s\n", *met.Path)
	}
}

// resilienceFlags bundles the -resilience flag values.
type resilienceFlags struct {
	counts, rmodes       string
	lanes, target        int
	killCycle            int64
	mtbf, repair, delay  int64
	retries              int
	backoff, cap, maxAge int64
}

func runResilience(spec *sim.Spec, pattern string, load float64, seed int64, workers int, rc resilienceFlags, met *obs.FlagSet) {
	var cfg faults.ResilienceConfig
	for _, f := range strings.Split(rc.counts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("-counts: %w", err))
		}
		cfg.Counts = append(cfg.Counts, n)
	}
	for _, m := range strings.Split(rc.rmodes, ",") {
		switch strings.TrimSpace(m) {
		case "min":
			cfg.Modes = append(cfg.Modes, sim.MIN)
		case "ugal":
			cfg.Modes = append(cfg.Modes, sim.UGALMode)
		case "ugal-g":
			cfg.Modes = append(cfg.Modes, sim.UGALGMode)
		case "mp-min":
			cfg.Modes = append(cfg.Modes, sim.MPMINMode)
		case "mp-ugal":
			cfg.Modes = append(cfg.Modes, sim.MPUGALMode)
		default:
			fatal(fmt.Errorf("-rmodes: unknown routing %q", m))
		}
	}
	params := sim.DefaultParams(seed)
	cfg.Pattern = pattern
	cfg.Load = load
	cfg.KillCycle = rc.killCycle
	if cfg.KillCycle <= 0 {
		cfg.KillCycle = int64(params.Warmup)
	}
	cfg.MTBF = rc.mtbf
	cfg.Repair = rc.repair
	cfg.TargetLanes = rc.target
	cfg.RepairDelay = rc.delay
	cfg.Seed = seed

	params.MetricsInterval = *met.Interval
	params.Lanes = rc.lanes
	params.Retry = retryPolicy(rc.retries, rc.backoff, rc.cap, rc.maxAge)
	if workers > 0 {
		params.Workers = workers
	} else {
		params.Workers = runtime.GOMAXPROCS(0)
	}

	var run *obs.Run
	var fr *obs.FaultResilience
	if met.Enabled() {
		run = obs.NewRun("psfaults")
		run.Manifest.Spec = spec.Name
		run.Manifest.Pattern = pattern
		run.Manifest.Seed = seed
		run.Manifest.Workers = params.Workers
		fr = &obs.FaultResilience{}
		run.FaultResilience = fr
	}
	var curves []faults.ResilienceCurve
	var err error
	prof.Task(func() {
		curves, err = faults.ResilienceSweep(spec, cfg, params, fr)
	}, "phase", "fault-resilience", "spec", spec.Name)
	if err != nil {
		fatal(err)
	}
	target := ""
	if cfg.TargetLanes > 0 {
		target = fmt.Sprintf(" target-lanes=%d", cfg.TargetLanes)
	}
	if cfg.RepairDelay > 0 {
		target += fmt.Sprintf(" repair-delay=%d", cfg.RepairDelay)
	}
	fmt.Printf("# %s %s resilience at load %.2f (kill@%d mtbf=%d repair=%d%s)\n",
		spec.Name, pattern, load, cfg.KillCycle, cfg.MTBF, cfg.Repair, target)
	fmt.Printf("%-9s %-9s %-12s %-12s %-10s %-8s %-8s\n",
		"routing", "failures", "throughput", "avg-lat", "delivered", "lost", "retried")
	for _, c := range curves {
		name := c.Mode.String()
		if c.Lanes > 0 {
			name = fmt.Sprintf("%s(%d)", name, c.Lanes)
		}
		for _, p := range c.Points {
			fmt.Printf("%-9s %-9d %-12.4f %-12.2f %-10.3f %-8d %-8d\n",
				name, p.Failures, p.Throughput, p.AvgLatency, p.DeliveredFrac, p.Lost, p.Retried)
		}
	}
	if met.Enabled() {
		if err := met.Write(run); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote metrics %s\n", *met.Path)
	}
}

// liveFaults bundles the -fault-plan/-mtbf/retry flag values for the
// -traffic mode, where they inject live faults into every degraded run.
type liveFaults struct {
	plan                 string
	mtbf                 float64
	repair               int64
	retries              int
	backoff, cap, maxAge int64
}

func runTraffic(spec *sim.Spec, mode, pattern string, load float64, seed int64, workers int, lf liveFaults, met *obs.FlagSet) {
	m := sim.MIN
	if mode == "ugal" {
		m = sim.UGALMode
	}
	params := sim.DefaultParams(seed)
	params.MetricsInterval = *met.Interval
	if workers > 0 {
		params.Workers = workers
	} else {
		params.Workers = runtime.GOMAXPROCS(0)
	}
	if lf.plan != "" || lf.mtbf > 0 {
		horizon := int64(params.Warmup + params.Measure + params.Drain)
		plan, err := sim.LoadPlan(lf.plan, lf.mtbf, lf.repair, spec.Graph, horizon, seed)
		if err != nil {
			fatal(err)
		}
		params.Plan = plan
		params.Retry = retryPolicy(lf.retries, lf.backoff, lf.cap, lf.maxAge)
	}
	var run *obs.Run
	var ft *obs.FaultTraffic
	if met.Enabled() {
		run = obs.NewRun("psfaults")
		run.Manifest.Spec = spec.Name
		run.Manifest.Routing = m.String()
		run.Manifest.Pattern = pattern
		run.Manifest.Seed = seed
		run.Manifest.Workers = params.Workers
		if params.Plan != nil {
			run.Manifest.FaultPlan = faultManifest(params, lf.plan, lf.mtbf, lf.repair)
		}
		ft = &obs.FaultTraffic{}
		run.FaultTraffic = ft
	}
	var pts []faults.TrafficPoint
	var err error
	prof.Task(func() {
		pts, err = faults.TrafficSweep(spec, m, pattern, load, faults.DefaultFracs, params, seed, ft)
	}, "phase", "fault-traffic", "spec", spec.Name)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s %s %s under random link failures at load %.2f\n", spec.Name, m, pattern, load)
	fmt.Printf("%-10s %-8s %-12s %-10s %-10s\n", "failfrac", "removed", "avg-lat", "delivered", "saturated")
	for _, p := range pts {
		fmt.Printf("%-10.2f %-8d %-12.2f %-10.3f %-10v\n", p.FailFrac, p.Removed, p.AvgLatency, p.DeliveredFrac, p.Saturated)
	}
	if met.Enabled() {
		if err := met.Write(run); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote metrics %s\n", *met.Path)
	}
}

// retryPolicy layers the explicitly set retry flags over the default
// policy (0 keeps each default; -pkt-max-age < 0 disables the age limit).
func retryPolicy(retries int, backoff, cap, maxAge int64) sim.RetryPolicy {
	rp := sim.DefaultRetryPolicy()
	if retries > 0 {
		rp.MaxRetries = retries
	}
	if backoff > 0 {
		rp.BackoffBase = backoff
	}
	if cap > 0 {
		rp.BackoffCap = cap
	}
	if maxAge > 0 {
		rp.MaxAge = maxAge
	} else if maxAge < 0 {
		rp.MaxAge = 0
	}
	return rp
}

// faultManifest records the fault plan (canonical hash + generator
// parameters) and the effective retry policy, so a degraded run is
// reproducible from its artifact alone.
func faultManifest(params sim.Params, source string, mtbf float64, repair int64) *obs.FaultPlan {
	return &obs.FaultPlan{
		Hash:        fmt.Sprintf("%016x", params.Plan.Hash()),
		Events:      len(params.Plan.Events),
		Source:      source,
		MTBF:        mtbf,
		Repair:      repair,
		RepairDelay: params.RepairDelay,
		MaxRetries:  params.Retry.MaxRetries,
		BackoffBase: params.Retry.BackoffBase,
		BackoffCap:  params.Retry.BackoffCap,
		MaxAge:      params.Retry.MaxAge,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psfaults:", err)
	os.Exit(1)
}
