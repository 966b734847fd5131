package main

import (
	"math"
	"sort"
)

// metricDef registers one metric. Listed marks the metrics named in
// BENCHMARK.json: every run reports each of them, so they must mean the
// same thing on every workload. The others are reported by the workloads
// they apply to (Workloads; nil: all) in the table and the run report.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end: tolerated worsening as a share of the base median (0: not gated)
	Listed bool
	// Workloads lists the workloads that report the metric (nil: all).
	Workloads []string
}

// The sim-paper points, the serve-mix request classes and the layers the
// spans are grouped into.
var (
	simPoints   = []string{"iq113-ugal-uniform", "iq113-min-adversarial", "iq2311-min-uniform"}
	serveKinds  = []string{"min", "ugal", "mp-ugal", "fault-min", "fault-mp-ugal"}
	faultKinds  = []string{"fault-min", "fault-mp-ugal"}
	mpKinds     = []string{"mp-ugal", "fault-mp-ugal"}
	traceLayers = []string{"topo", "graph", "traffic", "route", "sim", "serve", "search"}
)

var (
	simOnly    = []string{"sim-paper"}
	serveOnly  = []string{"serve-mix"}
	searchOnly = []string{"search-aspl"}
)

// endToEnd holds the untraced metrics. The four Listed metrics exist on
// every workload; ops_per_s and op_ms take the workload's own headline
// (README.md maps them onto the named metrics below). Each figure has one
// bound: a named metric that ops_per_s or op_ms restates has none of its
// own, and BENCHMARK.json gates it through the Listed copy.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Listed: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.24, Listed: true},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.24, Listed: true},

	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Workloads: simOnly}, // = ops_per_s
	{Name: "paper_point_s", Unit: "s", Better: "lower", Workloads: simOnly},            // = op_ms / 1000
	{Name: "serve_cold_p50_ms", Unit: "ms", Better: "lower", Workloads: serveOnly},     // = op_ms
	// The cold tail: run-to-run spread up to 0.20, so a 20% bound would
	// flag noise.
	{Name: "serve_cold_p90_ms", Unit: "ms", Better: "lower", Bound: 0.24, Workloads: serveOnly},
	{Name: "serve_warm_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: serveOnly},
	// Not gated: the tail of sub-millisecond replies tracks host
	// scheduling more than the service (run-to-run spread 0.20-0.49).
	{Name: "serve_warm_p99_ms", Unit: "ms", Better: "lower", Workloads: serveOnly},
	{Name: "serve_req_per_s", Unit: "req/s", Better: "higher", Workloads: serveOnly},       // = ops_per_s
	{Name: "search_swaps_per_s", Unit: "evals/s", Better: "higher", Workloads: searchOnly}, // = ops_per_s
}

// perLayer holds the traced-run metrics. Listed ones are counts, ratios
// and shares, which read 0 for a layer the workload never calls; the
// per-call times are reported by the workloads that make the call.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Listed: true}}
	for _, l := range traceLayers {
		d = append(d, metricDef{Name: l + ".self_frac", Unit: "frac", Better: "lower", Listed: true})
	}
	for _, p := range simPoints {
		for _, c := range []string{"generated", "delivered", "stall_credit", "stall_channel", "stall_inject", "stall_eject"} {
			better := "lower"
			if c == "generated" || c == "delivered" {
				better = "higher"
			}
			d = append(d, metricDef{Name: "sim." + c + "." + p, Unit: "count", Better: better, Listed: true})
		}
		d = append(d,
			metricDef{Name: "sim.stalls_per_delivered." + p, Unit: "ratio", Better: "lower", Listed: true},
			metricDef{Name: "sim.latency_p99_cycles." + p, Unit: "cycles", Better: "lower", Listed: true})
	}
	for _, k := range faultKinds {
		for _, c := range []string{"dropped", "retried", "lost"} {
			d = append(d, metricDef{Name: "sim." + c + "." + k, Unit: "count", Better: "lower", Listed: true})
		}
	}
	d = append(d,
		metricDef{Name: "serve.hit_frac", Unit: "frac", Better: "higher", Listed: true},
		metricDef{Name: "serve.misses", Unit: "count", Better: "lower", Listed: true},
		metricDef{Name: "serve.joined", Unit: "count", Better: "lower", Listed: true},
		metricDef{Name: "serve.shed", Unit: "count", Better: "lower", Listed: true},
		metricDef{Name: "serve.cached_bytes", Unit: "B", Better: "lower", Listed: true},
		metricDef{Name: "search.proposed", Unit: "count", Better: "higher", Listed: true},
		metricDef{Name: "search.evals", Unit: "count", Better: "higher", Listed: true},
		metricDef{Name: "search.accept_frac", Unit: "frac", Better: "higher", Listed: true},
		metricDef{Name: "graph.dirty_frac", Unit: "frac", Better: "lower", Listed: true},
		metricDef{Name: "search.drift", Unit: "count", Better: "lower", Listed: true},
		metricDef{Name: "graph.pool_speedup_2v1", Unit: "ratio", Better: "higher", Listed: true},
	)

	// Per-call times, reported where the call happens.
	d = append(d,
		metricDef{Name: "topo.new_spec_s.ps-iq", Unit: "s", Better: "lower", Workloads: simOnly},
		metricDef{Name: "topo.new_spec_s.ps-iq-large", Unit: "s", Better: "lower", Workloads: simOnly},
		metricDef{Name: "graph.allpairs_s", Unit: "s", Better: "lower", Workloads: searchOnly},
	)
	for _, p := range simPoints {
		for _, s := range []string{"traffic.pattern_s", "sim.reachable_s", "route.routing_s", "sim.new_engine_s", "sim.run_s"} {
			d = append(d, metricDef{Name: s + "." + p, Unit: "s", Better: "lower", Workloads: simOnly})
		}
	}
	for _, k := range mpKinds {
		d = append(d, metricDef{Name: "route.multipath_build_ms." + k, Unit: "ms", Better: "lower", Workloads: serveOnly})
	}
	for _, k := range serveKinds {
		d = append(d, metricDef{Name: "serve.cold_ms." + k, Unit: "ms", Better: "lower", Workloads: serveOnly})
	}
	d = append(d,
		metricDef{Name: "sim.plan_parse_us", Unit: "us", Better: "lower", Workloads: serveOnly},
		metricDef{Name: "serve.decode_us", Unit: "us", Better: "lower", Workloads: serveOnly},
		metricDef{Name: "serve.overhead_ms", Unit: "ms", Better: "lower", Workloads: serveOnly},
		metricDef{Name: "search.new_s", Unit: "s", Better: "lower", Workloads: searchOnly},
		metricDef{Name: "graph.eval_ms_p50", Unit: "ms", Better: "lower", Workloads: searchOnly},
		metricDef{Name: "graph.eval_ms_p99", Unit: "ms", Better: "lower", Workloads: searchOnly},
	)
	return d
}

// appliesTo reports whether workload w reports metric d.
func (d metricDef) appliesTo(w string) bool {
	if d.Listed || d.Workloads == nil {
		return true
	}
	for _, x := range d.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

// quartiles returns Q1, Q2 and Q3 of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
