// psbench records the repo's machine-readable benchmark trajectory:
// it runs a fixed latency-load sweep workload per spec and writes wall
// time, simulated cycles/sec and allocated bytes per generated packet as
// BENCH_sim.json — the datapoint CI's bench-smoke job regenerates so
// engine-performance regressions show up as a diffable number, not a
// feeling. With -graph-out it also benchmarks the graph kernel: full
// AllPairsStats recomputation vs the incremental DeltaStats evaluation
// the search engine runs per 2-opt swap, emitting BENCH_graph.json with
// the measured speedup and mean dirty-source count, plus a replay of the
// same swap sequence through intra-Apply worker pools of width 1, 4 and
// 8 (the parallel_apply rows). Committed snapshots live in
// results/perf/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

// benchEntry is one (spec, routing) sweep measurement.
type benchEntry struct {
	Spec    string `json:"spec"`
	Routing string `json:"routing"`
	// Lanes is the spanning-tree lane count of a multipath entry (0 on
	// single-table routings): the k-lane sweep timing rows quantify what
	// the lane spray costs the healthy engine.
	Lanes         int       `json:"lanes,omitempty"`
	Loads         []float64 `json:"loads"`
	CyclesPerRun  int       `json:"cycles_per_run"`
	WallSeconds   float64   `json:"wall_seconds"`
	Cycles        int64     `json:"cycles"`         // simulated cycles, summed over load points
	CyclesPerSec  float64   `json:"cycles_per_sec"` // simulated cycles per wall second
	Packets       int64     `json:"packets"`        // packets generated across the sweep
	BytesPerPkt   float64   `json:"bytes_per_packet"`
	PacketsPerSec float64   `json:"packets_per_sec"`
}

type benchFile struct {
	Tool    string       `json:"tool"`
	Go      string       `json:"go"`
	Arch    string       `json:"arch"`
	Workers int          `json:"workers"`
	Entries []benchEntry `json:"entries"`
}

// graphEntry is one graph-kernel measurement: the wall cost of a full
// all-pairs recomputation vs the delta evaluation of one 2-opt swap.
type graphEntry struct {
	Graph       string  `json:"graph"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	Degree      int     `json:"degree"`
	Swaps       int     `json:"swaps"`         // applied (accepted) swaps measured
	AllPairsMS  float64 `json:"allpairs_ms"`   // one full AllPairsStatsSerial
	DeltaMS     float64 `json:"delta_ms"`      // one DeltaStats.Apply, mean
	DirtyMean   float64 `json:"dirty_mean"`    // BFS sources recomputed per swap
	DirtyFrac   float64 `json:"dirty_frac"`    // dirty_mean / n
	SpeedupFull float64 `json:"speedup_full"`  // allpairs_ms / delta_ms
	Rebuilds    int64   `json:"full_rebuilds"` // stride-overflow fallbacks (expect 0)
	DistsBytes  int64   `json:"dists_bytes"`   // probe-buffer high-water over the walk

	// Parallel replays the measured swap sequence through intra-Apply
	// EvalPools of increasing width; results are bit-identical to the
	// serial walk, only the wall time moves.
	Parallel []parallelRow `json:"parallel_apply,omitempty"`
}

// parallelRow is one pooled replay of a graph-kernel swap sequence.
type parallelRow struct {
	Workers         int     `json:"workers"`
	DeltaMS         float64 `json:"delta_ms"`          // mean Apply wall time at this width
	SpeedupVsSerial float64 `json:"speedup_vs_serial"` // workers=1 replay delta_ms / this delta_ms
}

type graphBenchFile struct {
	Tool    string       `json:"tool"`
	Section string       `json:"section"`
	Go      string       `json:"go"`
	Arch    string       `json:"arch"`
	Seed    int64        `json:"seed"`
	Entries []graphEntry `json:"entries"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_sim.json", "sim sweep output JSON path (- for stdout, empty to skip)")
		workers    = flag.Int("workers", 1, "sim engine shard workers per run")
		seed       = flag.Int64("seed", 1, "seed")
		graphOut   = flag.String("graph-out", "", "graph-kernel bench output JSON path (- for stdout, empty to skip)")
		graphSwaps = flag.Int("graph-swaps", 200, "2-opt swaps to measure per graph in the kernel bench")
	)
	flag.Parse()

	if *graphOut != "" {
		runGraphBench(*graphOut, *graphSwaps, *seed)
	}
	if *out == "" {
		return
	}

	cases := []struct {
		spec string
		mode sim.RoutingMode
	}{
		{"ps-iq-small", sim.MIN},
		{"ps-iq-small", sim.UGALMode},
		{"ps-iq-small", sim.MPMINMode},
		{"ps-iq-small", sim.MPUGALMode},
		{"hx-small", sim.UGALMode},
	}
	loads := []float64{0.1, 0.3, 0.5}
	bf := benchFile{Tool: "psbench", Go: runtime.Version(), Arch: runtime.GOARCH, Workers: *workers}

	for _, c := range cases {
		spec := sim.MustNewSpec(c.spec)
		p := sim.DefaultParams(*seed)
		p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
		p.Workers = *workers
		sm := obs.NewSimSweep(c.spec, c.mode.String(), "uniform", len(loads))
		lanes := 0
		if c.mode == sim.MPMINMode || c.mode == sim.MPUGALMode {
			if r, err := spec.MultiPathRouting(spec.MinRouting(), p.Lanes, p.PacketFlits); err == nil {
				lanes = r.(*sim.MultiPathRouting).MP.TreeLanes()
			}
		}

		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := sim.Sweep(spec, c.mode, "uniform", loads, p, sm); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)

		perRun := p.Warmup + p.Measure + p.Drain
		var packets int64
		for _, pt := range sm.Points {
			packets += int64(pt.Generated)
		}
		cycles := int64(perRun) * int64(len(loads))
		e := benchEntry{
			Spec:         c.spec,
			Routing:      c.mode.String(),
			Lanes:        lanes,
			Loads:        loads,
			CyclesPerRun: perRun,
			WallSeconds:  wall,
			Cycles:       cycles,
			CyclesPerSec: float64(cycles) / wall,
			Packets:      packets,
		}
		if packets > 0 {
			e.BytesPerPkt = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(packets)
			e.PacketsPerSec = float64(packets) / wall
		}
		bf.Entries = append(bf.Entries, e)
	}

	enc, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
	fmt.Printf("psbench: wrote %s (%d entries)\n", *out, len(bf.Entries))
}

// runGraphBench measures the incremental-evaluation speedup that makes
// the 2-opt search viable: mean DeltaStats.Apply cost per applied swap
// against one full AllPairsStatsSerial recomputation, per graph.
func runGraphBench(out string, swaps int, seed int64) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"jellyfish-1024-16", func() (*graph.Graph, error) { return topo.NewJellyfish(1024, 16, seed) }},
		{"jellyfish-4096-16", func() (*graph.Graph, error) { return topo.NewJellyfish(4096, 16, seed) }},
		{"polarstar-iq-11-3", func() (*graph.Graph, error) {
			ps, err := topo.NewPolarStar(11, 3, topo.KindIQ)
			if err != nil {
				return nil, err
			}
			return ps.G, nil
		}},
	}

	gf := graphBenchFile{Tool: "psbench", Section: "graph-kernel", Go: runtime.Version(), Arch: runtime.GOARCH, Seed: seed}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		e, err := benchGraphKernel(c.name, g, swaps, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
		gf.Entries = append(gf.Entries, e)
	}

	enc, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		os.Exit(1)
	}
	fmt.Printf("psbench: wrote %s (%d entries)\n", out, len(gf.Entries))
}

func benchGraphKernel(name string, g *graph.Graph, swaps int, seed int64) (graphEntry, error) {
	// Full-recomputation baseline: best of 3 so a stray scheduler blip
	// cannot inflate the reported speedup.
	fullMS := 0.0
	var scratch graph.BitBFSScratch
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		g.AllPairsStatsSerial(&scratch)
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; rep == 0 || ms < fullMS {
			fullMS = ms
		}
	}

	d := graph.NewDeltaStats(g)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	var deltaNS int64
	var seq []graph.Swap
	applied := 0
	for attempts := 0; applied < swaps; attempts++ {
		if attempts > 1000*swaps {
			return graphEntry{}, fmt.Errorf("graph bench %s: cannot find %d valid swaps", name, swaps)
		}
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
		a, b := int32(edges[i][0]), int32(edges[i][1])
		c2, d2 := int32(edges[j][0]), int32(edges[j][1])
		if rng.Intn(2) == 1 {
			a, b = b, a
		}
		if rng.Intn(2) == 1 {
			c2, d2 = d2, c2
		}
		sw := graph.Swap{A: a, B: b, C: c2, D: d2}
		if !d.Graph().CanSwap(sw) {
			continue
		}
		t0 := time.Now()
		d.Apply(sw)
		deltaNS += time.Since(t0).Nanoseconds()
		seq = append(seq, sw)
		edges[i] = [2]int{int(a), int(c2)}
		edges[j] = [2]int{int(b), int(d2)}
		applied++
	}
	if d.Resync() {
		return graphEntry{}, fmt.Errorf("graph bench %s: delta state drifted from full recomputation", name)
	}

	e := graphEntry{
		Graph:      name,
		N:          g.N(),
		M:          len(edges),
		Degree:     g.MaxDegree(),
		Swaps:      applied,
		AllPairsMS: fullMS,
		DeltaMS:    float64(deltaNS) / 1e6 / float64(applied),
		DirtyMean:  float64(d.DirtyTotal) / float64(d.Evals),
		Rebuilds:   d.FullRebuilds,
		DistsBytes: d.DistsBytes,
	}
	e.DirtyFrac = e.DirtyMean / float64(e.N)
	e.SpeedupFull = e.AllPairsMS / e.DeltaMS

	// Replay the identical swap sequence through intra-Apply pools. The
	// workers=1 replay is the speedup baseline (same code path, same
	// cache state) so the rows compare pool widths, not walk variance.
	refSum, refPairs := d.SumPairs()
	serialMS := 0.0
	for _, w := range []int{1, 4, 8} {
		dp := graph.NewDeltaStatsPool(g, graph.NewEvalPool(w))
		t0 := time.Now()
		for _, sw := range seq {
			dp.Apply(sw)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(len(seq))
		if sum, pairs := dp.SumPairs(); sum != refSum || pairs != refPairs {
			return graphEntry{}, fmt.Errorf("graph bench %s: workers=%d replay diverged", name, w)
		}
		if w == 1 {
			serialMS = ms
		}
		e.Parallel = append(e.Parallel, parallelRow{Workers: w, DeltaMS: ms, SpeedupVsSerial: serialMS / ms})
	}
	return e, nil
}
