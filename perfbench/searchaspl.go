package main

import (
	"math"
	"reflect"
	"runtime"
	"time"

	"polarstar/internal/graph"
	"polarstar/internal/search"
	"polarstar/internal/topo"
)

// search-aspl is EXPERIMENTS.md E22 shortened: one annealer walking 2-opt
// swaps from PolarStar-IQ(23,11) (13,272 routers, degree 35), every
// proposal delta-evaluated on the pooled bit-BFS kernel at width 2. A walk
// accepts more than ResyncEvery swaps, so it includes a full resync, whose
// drift must be 0. A run makes walks until its time is up; walk i > 0
// uses a seed derived from the run seed and i, so a run's median averages
// over several walks rather than timing one walk again.
func searchParams(seed int64, workers int) search.Params {
	return search.Params{
		Seed: seed, Searchers: 1, Epochs: 2, Iters: 80,
		InitTemp: 13272 / 2, Cooling: 0.85, ResyncEvery: 64, Workers: workers,
	}
}

func walkSeed(runSeed int64, i int) int64 {
	if i == 0 {
		return runSeed
	}
	return int64(mix64(uint64(runSeed), uint64(i)) >> 1)
}

// walk is the outcome of one Engine.Run the checks compare.
type walk struct {
	BestCost   int64
	Stats      graph.PathStats
	Counters   search.Counters
	Trajectory []search.EpochStat
}

func searchASPL(r *run) {
	var (
		start        *graph.Graph
		setups, news []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		root := r.tr.start("bench.setup", 0, 0)
		t0 := time.Now()
		var err error
		r.tr.do("topo.polarstar", root, 0, func(int) {
			var ps *topo.PolarStar
			if ps, err = topo.NewPolarStar(23, 11, topo.KindIQ); err == nil {
				start = ps.G
			}
		})
		if err == nil {
			d := r.tr.do("search.new", root, 0, func(int) { _, err = search.New(start, searchParams(r.seed, 2)) })
			news = append(news, d.Seconds())
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(root)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
	}
	r.set("setup_s", median(setups))
	r.set("search.new_s", median(news))

	var (
		first        *walk
		rates, walls []float64
	)
	t0 := time.Now()
	for i := 0; i == 0 || !r.deadline(t0); i++ {
		res, secs, ok := runWalk(r, nil, "", start, searchParams(walkSeed(r.seed, i), 2))
		if !ok {
			return
		}
		if w := checkWalk(r, res); i == 0 {
			first = w
		}
		rates = append(rates, float64(res.Counters.Evals)/secs)
		walls = append(walls, secs)
	}
	r.outputs["walk"] = first
	r.set("search_swaps_per_s", median(rates))
	r.set("ops_per_s", median(rates))
	r.set("op_ms", 1000*median(walls))
	if !r.traced {
		r.set("peak_rss_mb", peakRSSMiB())
		return
	}

	var st graph.PathStats
	d := r.tr.do("graph.allpairs", 0, 0, func(int) { st = start.AllPairsStats() })
	r.set("graph.allpairs_s", d.Seconds())
	if !st.Connected || st.Diameter != 3 {
		r.fail("PolarStar-IQ(23,11) start graph: %+v", st)
	}

	// The traced figures below divide by the untraced time of the same
	// walk (run seed, width 2): the first timed walk and one more run of
	// it, so that one slow moment of the host moves the reference less.
	res0, secs0, ok := runWalk(r, nil, "", start, searchParams(r.seed, 2))
	if !ok {
		return
	}
	if w := checkWalk(r, res0); !reflect.DeepEqual(w, first) {
		r.fail("second run of the first walk differs from the first")
	}
	same := median([]float64{walls[0], secs0})

	// Traced walk: same walk with per-evaluation timing on.
	p := searchParams(r.seed, 2)
	p.TimeEvals = true
	res, secs, ok := runWalk(r, r.tr, "search.run", start, p)
	if !ok {
		return
	}
	if w := checkWalk(r, res); !reflect.DeepEqual(w, first) {
		r.fail("walk with TimeEvals differs from the timed walk")
	}
	r.set("trace.overhead_frac", secs/same-1)
	c := res.Counters
	r.set("search.proposed", float64(c.Proposed))
	r.set("search.evals", float64(c.Evals))
	r.set("search.accept_frac", float64(c.Accepted)/float64(max(c.Proposed, 1)))
	r.set("graph.dirty_frac", float64(c.DirtyTotal)/float64(max(c.Evals, 1))/float64(start.N()))
	r.set("search.drift", float64(c.Drift))
	if res.EvalNS != nil {
		r.set("graph.eval_ms_p50", float64(res.EvalNS.Quantile(0.50))/1e6)
		r.set("graph.eval_ms_p99", float64(res.EvalNS.Quantile(0.99))/1e6)
	}

	// The same walk at pool width 1.
	res1, secs1, ok := runWalk(r, r.tr, "search.run_width1", start, searchParams(r.seed, 1))
	if !ok {
		return
	}
	if w := checkWalk(r, res1); !reflect.DeepEqual(w, first) {
		r.fail("walk at pool width 1 differs from width 2")
	}
	r.set("graph.pool_speedup_2v1", secs1/same)
	setShares(r, r.tr.selfByLayer())
}

// runWalk builds an engine and times its Run, in a span of tr (nil:
// untraced).
func runWalk(r *run, tr *tracer, span string, start *graph.Graph, p search.Params) (*search.Result, float64, bool) {
	r.attempt()
	eng, err := search.New(start, p)
	if err != nil {
		r.fail("search.New: %v", err)
		return nil, 0, false
	}
	runtime.GC()
	var res *search.Result
	d := tr.do(span, 0, 0, func(int) { res = eng.Run() })
	return res, d.Seconds(), true
}

// checkWalk checks a walk at any seed: no resync drift, and a best cost
// and statistics equal to an all-pairs recomputation on the best graph.
func checkWalk(r *run, res *search.Result) *walk {
	r.attempt()
	if res.Counters.Drift != 0 {
		r.fail("search drift %d", res.Counters.Drift)
	}
	if res.Counters.Resyncs == 0 {
		r.fail("walk made no resync, so drift went unchecked")
	}
	st := res.Best.AllPairsStats()
	n := int64(res.Best.N())
	sum := int64(math.Round(st.AvgPath * float64(st.Pairs)))
	cost := sum + (n*(n-1)-st.Pairs)*n
	if cost != res.BestCost || st != res.Stats {
		r.fail("best cost %d (stats %+v), recomputed %d (stats %+v)", res.BestCost, res.Stats, cost, st)
	}
	return &walk{res.BestCost, res.Stats, res.Counters, res.Trajectory}
}
