// psdump prints the full Result and marshaled obs artifact of every
// small spec × routing mode at a given worker count, plus saturated
// multipath runs and scripted fault-plan runs — a determinism oracle for
// comparing engine versions and worker counts:
//
//	go run ./cmd/psdump -workers 1 > w1.txt
//	go run ./cmd/psdump -workers 4 > w4.txt
//	cmp w1.txt w4.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

func main() {
	workers := flag.Int("workers", 1, "engine worker count")
	flag.Parse()
	smalls := []string{
		"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small",
		"sf-small", "mf-small", "ft-small", "pf-small", "slimfly-small",
	}
	for _, name := range smalls {
		spec := sim.MustNewSpec(name)
		for _, mode := range []string{"min", "ugal"} {
			// Twice per (spec, mode): with the obs artifact attached and
			// without — the Result must be identical either way and
			// across versions.
			for _, withObs := range []bool{true, false} {
				p := sim.DefaultParams(1)
				p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
				p.Workers = *workers
				if withObs {
					p.Metrics = &obs.SimRun{}
					p.MetricsInterval = 250
				}
				var r sim.Routing
				if mode == "min" {
					r = spec.MinRouting()
				} else {
					r = spec.UGALRouting(p.PacketFlits)
				}
				pat, err := spec.Pattern("uniform", 1)
				if err != nil {
					panic(err)
				}
				eng := sim.NewEngine(p, spec.Graph, spec.Config(), r, pat)
				res := eng.Run(0.3)
				if withObs {
					b, _ := json.Marshal(p.Metrics)
					fmt.Printf("%s/%s result=%+v\nobs=%s\n", name, mode, res, b)
				} else {
					fmt.Printf("%s/%s/noobs result=%+v\n", name, mode, res)
				}
			}
		}
	}
	// High-load no-obs runs: saturate ps-iq-small so the credit-stall
	// path (parked units) dominates.
	for _, load := range []float64{0.6, 0.95} {
		spec := sim.MustNewSpec("ps-iq-small")
		p := sim.DefaultParams(3)
		p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
		p.Workers = *workers
		pat, err := spec.Pattern("uniform", 3)
		if err != nil {
			panic(err)
		}
		eng := sim.NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pat)
		res := eng.Run(load)
		fmt.Printf("sat/%.2f result=%+v\n", load, res)
	}
	// Saturated multipath runs with the obs artifact and its interval
	// series: lane spray and credit parking on the tree-lane VC bands.
	for _, mode := range []sim.RoutingMode{sim.MPMINMode, sim.MPUGALMode} {
		spec := sim.MustNewSpec("ps-iq-small")
		p := sim.DefaultParams(5)
		p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
		p.Workers = *workers
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 50
		res, err := sim.RunPoint(context.Background(), spec, mode, "uniform", 0.8, p)
		if err != nil {
			panic(err)
		}
		b, _ := json.Marshal(p.Metrics)
		fmt.Printf("sat/%s result=%+v\nobs=%s\n", mode, res, b)
	}
	// Scripted fault plan on ps-iq-small (mirrors the determinism tests),
	// observed and unobserved.
	spec := sim.MustNewSpec("ps-iq-small")
	var edge [2]int
	for _, e := range spec.Graph.Edges() {
		if e[0] != 3 && e[1] != 3 {
			edge = e
			break
		}
	}
	plan := &sim.Plan{Events: []sim.FaultEvent{
		{Cycle: 350, Kind: sim.LinkDown, U: edge[0], V: edge[1]},
		{Cycle: 420, Kind: sim.RouterDown, U: 3},
		{Cycle: 600, Kind: sim.LinkUp, U: edge[0], V: edge[1]},
	}}
	for _, mode := range []string{"min", "ugal"} {
		for _, withObs := range []bool{true, false} {
			p := sim.DefaultParams(7)
			p.Warmup, p.Measure, p.Drain = 300, 600, 2500
			p.Workers = *workers
			p.Plan = plan
			if withObs {
				p.Metrics = &obs.SimRun{}
				p.MetricsInterval = 250
			}
			var r sim.Routing
			if mode == "min" {
				r = spec.MinRouting()
			} else {
				r = spec.UGALRouting(p.PacketFlits)
			}
			pat, err := spec.Pattern("uniform", p.Seed)
			if err != nil {
				panic(err)
			}
			eng := sim.NewEngine(p, spec.Graph, spec.Config(), r, pat)
			res := eng.Run(0.3)
			if withObs {
				b, _ := json.Marshal(p.Metrics)
				fmt.Printf("fault/%s result=%+v\nobs=%s\n", mode, res, b)
			} else {
				fmt.Printf("fault/%s/noobs result=%+v\n", mode, res)
			}
		}
	}
}
