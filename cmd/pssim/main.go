// pssim runs the synthetic-traffic latency-load experiments of §9
// (Figs 9 and 10) on the cycle-level simulator.
//
// Usage:
//
//	pssim -spec ps-iq -routing min -pattern uniform
//	pssim -spec df -routing ugal -pattern adversarial -loads 0.05,0.1,0.2
//	pssim -spec bf-small -cycles 4000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"polarstar/internal/obs"
	"polarstar/internal/plot"
	"polarstar/internal/prof"
	"polarstar/internal/sim"
)

func main() {
	var (
		specName = flag.String("spec", "ps-iq", "topology spec: "+strings.Join(sim.Table3Names, "|")+" (+\"-small\")")
		routing  = flag.String("routing", "min", "min|ugal|ugal-g|mp-min|mp-ugal")
		lanes    = flag.Int("lanes", 0, "spanning-tree lanes for mp-min/mp-ugal (0: engine default)")
		pattern  = flag.String("pattern", "uniform", "uniform|permutation|bitshuffle|bitreverse|adversarial")
		loadsArg = flag.String("loads", "", "comma-separated offered loads (default standard ladder)")
		cycles   = flag.Int("cycles", 0, "override measurement cycles (warmup=cycles/2, drain=3*cycles/2)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		svgOut   = flag.String("svg", "", "also write the latency-load curve as an SVG file")
		workers  = flag.Int("workers", 0, "engine shard workers per run (0: auto-split cores between load points and shards; results are identical for any value)")

		faultPlan    = flag.String("fault-plan", "", "live fault plan file: one '<cycle> link-down|link-up|router-down|router-up <args>' per line")
		mtbf         = flag.Float64("mtbf", 0, "additionally generate random link failures with this mean-cycles-between-failures (0: none)")
		faultRepair  = flag.Int64("fault-repair", 0, "repair delay in cycles for -mtbf failures (0: permanent)")
		repairDelay  = flag.Int64("repair-delay", 0, "table-reconvergence stall in cycles after each applied fault event (0: instant repair)")
		retries      = flag.Int("retries", 0, "max source retries per packet under faults (0: default policy)")
		retryBackoff = flag.Int64("retry-backoff", 0, "base retry backoff in cycles, doubling per retry (0: default)")
		retryCap     = flag.Int64("retry-cap", 0, "retry backoff cap in cycles (0: default)")
		pktMaxAge    = flag.Int64("pkt-max-age", 0, "per-packet age limit in cycles under faults (0: default; <0: unlimited)")
		met          = obs.Flags()
	)
	flag.Parse()
	defer prof.Start()()

	spec, err := sim.NewSpec(*specName)
	if err != nil {
		fatal(err)
	}
	mode := sim.MIN
	switch *routing {
	case "min":
	case "ugal":
		mode = sim.UGALMode
	case "ugal-g":
		mode = sim.UGALGMode
	case "mp-min":
		mode = sim.MPMINMode
	case "mp-ugal":
		mode = sim.MPUGALMode
	default:
		fatal(fmt.Errorf("unknown routing %q", *routing))
	}
	loads := sim.DefaultLoads
	if *loadsArg != "" {
		loads = nil
		for _, part := range strings.Split(*loadsArg, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -loads: %v", err))
			}
			loads = append(loads, v)
		}
	}
	params := sim.DefaultParams(*seed)
	params.Workers = *workers
	params.Lanes = *lanes
	params.MetricsInterval = *met.Interval
	if *cycles > 0 {
		params.Warmup = *cycles / 2
		params.Measure = *cycles
		params.Drain = 3 * *cycles / 2
	}
	if *faultPlan != "" || *mtbf > 0 {
		horizon := int64(params.Warmup + params.Measure + params.Drain)
		plan, err := sim.LoadPlan(*faultPlan, *mtbf, *faultRepair, spec.Graph, horizon, *seed)
		if err != nil {
			fatal(err)
		}
		params.Plan = plan
		params.Retry = retryPolicy(*retries, *retryBackoff, *retryCap, *pktMaxAge)
		params.RepairDelay = *repairDelay
	}
	var run *obs.Run
	var sm *obs.SimSweep
	if met.Enabled() {
		run = obs.NewRun("pssim")
		run.Manifest.Spec = spec.Name
		run.Manifest.Routing = mode.String()
		run.Manifest.Pattern = *pattern
		run.Manifest.Seed = *seed
		run.Manifest.Workers = *workers
		if params.Plan != nil {
			run.Manifest.FaultPlan = faultManifest(params, *faultPlan, *mtbf, *faultRepair)
		}
		sm = obs.NewSimSweep(spec.Name, mode.String(), *pattern, len(loads))
		run.Sim = sm
	}
	fmt.Printf("# %s: %d routers, %d endpoints\n", spec.Name, spec.Graph.N(), spec.Endpoints())
	var res sim.SweepResult
	prof.Task(func() {
		res, err = sim.Sweep(spec, mode, *pattern, loads, params, sm)
	}, "phase", "sweep", "spec", spec.Name)
	if err != nil {
		fatal(err)
	}
	sim.WriteSweep(os.Stdout, res)
	fmt.Printf("# saturation load: %.3f\n", res.SaturationLoad())
	if met.Enabled() {
		if err := met.Write(run); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote metrics %s\n", *met.Path)
	}

	if *svgOut != "" {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("%s %s %s", spec.Name, res.Routing, res.Pattern),
			XLabel: "offered load (fraction of injection bandwidth)",
			YLabel: "average packet latency (cycles)",
		}
		var xs, ys []float64
		for _, p := range res.Points {
			if p.Saturated {
				break // the latency-load curve ends at saturation
			}
			xs = append(xs, p.Load)
			ys = append(ys, p.AvgLatency)
		}
		chart.Add(spec.Name, xs, ys)
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
	fmt.Fprintln(os.Stderr, "pssim:", err)
	os.Exit(1)
}
