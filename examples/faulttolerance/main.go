// Faulttolerance: the §11.2 resilience experiment in miniature — remove
// random links from PolarStar and Dragonfly and watch diameter and
// average path length degrade, plus the motif simulator measuring an
// Allreduce on both.
package main

import (
	"fmt"
	"log"

	"polarstar"
)

func main() {
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	for _, specName := range []string{"ps-iq-small", "df-small"} {
		spec, err := polarstar.NewSpec(specName)
		if err != nil {
			log.Fatal(err)
		}
		// 15 trials, report the median-disconnection-ratio scenario
		// (the paper uses 100 trials at full scale).
		tr, err := polarstar.FaultMedianTrial(spec.Graph, nil, 15, 7, fracs, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (%d routers, %d links) ===\n", spec.Name, spec.Graph.N(), spec.Graph.M())
		fmt.Printf("median disconnection ratio: %.2f\n", tr.DisconnectionRatio)
		for _, p := range tr.Curve {
			if p.Connected {
				fmt.Printf("  %3.0f%% failed: diameter %d, avg path %.3f\n", 100*p.FailFrac, p.Diameter, p.AvgPath)
			} else {
				fmt.Printf("  %3.0f%% failed: disconnected\n", 100*p.FailFrac)
			}
		}
	}

	// A motif on healthy networks for comparison (§10-style).
	fmt.Println("\n64-rank 64KB Allreduce, MIN routing, flow-level model:")
	for _, specName := range []string{"ps-iq-small", "df-small"} {
		spec, _ := polarstar.NewSpec(specName)
		net := polarstar.NewFlowNetwork(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids,
			polarstar.DefaultFlowParams(1))
		t := polarstar.RunAllreduce(net, 64, 64*1024, 1)
		fmt.Printf("  %-12s %.1f us\n", spec.Name, t/1000)
	}
}
