package sim

import (
	"testing"

	"polarstar/internal/obs"
)

// slabLive counts ids currently outside the allocator (queued or in
// flight): slab capacity minus every free-list entry.
func slabLive(e *Engine) int {
	free := len(e.pkts.free)
	for _, sh := range e.shards {
		free += len(sh.freeIDs) + len(sh.freed)
	}
	return e.pkts.cap() - free
}

// slabExpectedLive is what slabLive must equal after a run: the reported
// queue backlog plus packets caught mid-link in the mail rings when the
// horizon (or the watchdog) cut the run off.
func slabExpectedLive(e *Engine, res Result) int {
	inFlight := 0
	for i := range e.mail {
		inFlight += len(e.mail[i])
	}
	return res.Backlog + inFlight
}

// slabRun drives one short ps-iq-small run and returns the engine for
// post-run slab inspection.
func slabRun(t *testing.T, workers int, load float64, plan *Plan, retry RetryPolicy) (*Engine, Result) {
	t.Helper()
	spec := fuzzSpec("ps-iq-small")
	p := DefaultParams(11)
	p.Warmup, p.Measure, p.Drain = 300, 600, 1500
	p.Workers = workers
	p.Plan = plan
	p.Retry = retry
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pattern)
	res := runGuarded(t, eng, load)
	return eng, res
}

// slabRunMP drives one saturated MP-MIN run on the multipath testbed
// while the first tree lane loses three edges mid-run: queued heads whose
// next channel died fail over in place onto the two higher lanes, which
// stay up (their route rewritten inside the packet record), and the rest
// are dropped and retried.
func slabRunMP(t *testing.T, workers int) (*Engine, Result, *obs.SimRun) {
	t.Helper()
	spec := MustNewSpec(mpTestSpec)
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 900
	p.Workers = workers
	p.Lanes = 3
	p.Plan = &Plan{}
	for _, ed := range laneEdges(t, spec, p.Lanes)[0][:3] {
		p.Plan.Events = append(p.Plan.Events,
			FaultEvent{Cycle: 350, Kind: LinkDown, U: ed[0], V: ed[1]},
			FaultEvent{Cycle: 700, Kind: LinkUp, U: ed[0], V: ed[1]})
	}
	p.Metrics = &obs.SimRun{}
	routing, err := spec.MultiPathRouting(spec.MinRouting(), p.Lanes, p.PacketFlits)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
	res := runGuarded(t, eng, 0.9)
	return eng, res, p.Metrics
}

// TestSlabInvariantAfterRun pins the allocator contract of the
// packet store: after any run, every id ever created is accounted for
// exactly once (no leaks, no id live in two queues), and a fully drained
// healthy run returns every id to the allocator (allocated − freed == 0).
func TestSlabInvariantAfterRun(t *testing.T) {
	cases := []struct {
		name  string
		load  float64
		plan  *Plan
		retry RetryPolicy
	}{
		{name: "healthy-low", load: 0.2},
		{name: "healthy-saturated", load: 0.9},
		{name: "faulty", load: 0.3, plan: &Plan{Events: []FaultEvent{
			{Cycle: 350, Kind: LinkDown, U: 0, V: 1},
			{Cycle: 500, Kind: RouterDown, U: 5},
			{Cycle: 700, Kind: LinkUp, U: 0, V: 1},
		}}},
		{name: "terminated-early", load: 0.3,
			plan:  &Plan{Events: []FaultEvent{{Cycle: 50, Kind: RouterDown, U: 3}}},
			retry: RetryPolicy{MaxRetries: 3, BackoffBase: 4, BackoffCap: 64, MaxAge: 1500}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				eng, res := slabRun(t, workers, c.load, c.plan, c.retry)
				if err := eng.slabCheck(); err != nil {
					t.Fatalf("workers=%d: %v (result %+v)", workers, err, res)
				}
				// A drained healthy run must hand every id back; stranded,
				// backlogged or mid-link packets legitimately keep theirs.
				if live, want := slabLive(eng), slabExpectedLive(eng, res); live != want {
					t.Errorf("workers=%d: %d live ids, want %d (result %+v)",
						workers, live, want, res)
				}
			}
		})
	}
	t.Run("multipath-saturated-faulty", func(t *testing.T) {
		t.Parallel()
		for _, workers := range []int{1, 4} {
			eng, res, met := slabRunMP(t, workers)
			if err := eng.slabCheck(); err != nil {
				t.Fatalf("workers=%d: %v (result %+v)", workers, err, res)
			}
			if live, want := slabLive(eng), slabExpectedLive(eng, res); live != want {
				t.Errorf("workers=%d: %d live ids, want %d (result %+v)", workers, live, want, res)
			}
			if !res.Saturated || failoverSum(met.Lanes) == 0 {
				t.Errorf("workers=%d: want a saturated run with lane failovers, got saturated=%v failovers=%v",
					workers, res.Saturated, met.Lanes.Failovers)
			}
		}
	})
}

// FuzzSlabInvariants fuzzes the slab allocator the way FuzzRoutePaths
// fuzzes the routers: arbitrary load, worker count, seed and fault-plan
// shape, asserting the accounting invariant after every run.
func FuzzSlabInvariants(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), false, uint16(100), uint8(3))
	f.Add(int64(7), uint8(9), uint8(1), true, uint16(60), uint8(0))
	f.Add(int64(42), uint8(5), uint8(16), true, uint16(400), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, loadB, workersB uint8, faulty bool, faultCycle uint16, faultRouter uint8) {
		spec := fuzzSpec("ps-iq-small")
		p := DefaultParams(seed)
		p.Warmup, p.Measure, p.Drain = 200, 400, 1200
		p.Workers = int(workersB % 17)
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 64
		if faulty {
			r := int(faultRouter) % spec.Graph.N()
			p.Plan = &Plan{Events: []FaultEvent{
				{Cycle: int64(faultCycle), Kind: RouterDown, U: r},
				{Cycle: int64(faultCycle) + 200, Kind: RouterUp, U: r},
			}}
			p.Retry = RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffCap: 32, MaxAge: 900}
		}
		load := 0.05 + float64(loadB%10)*0.1
		pattern, err := spec.Pattern("uniform", p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		res := eng.Run(load)
		if err := eng.slabCheck(); err != nil {
			t.Fatalf("%v (result %+v)", err, res)
		}
		if live, want := slabLive(eng), slabExpectedLive(eng, res); live != want {
			t.Errorf("%d live ids, want %d (result %+v)", live, want, res)
		}
	})
}

// TestGenHeapPackingGuards pins the construction-time validation of the
// generation calendar's packed (cycle<<epBits | endpoint) events: a spec
// with too many endpoints, or a run longer than the packed cycle field,
// must panic with a descriptive error instead of silently corrupting the
// heap order.
func TestGenHeapPackingGuards(t *testing.T) {
	spec := fuzzSpec("ps-iq-small")
	mustPanic := func(name string, p Params, perRouter int) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("NewEngine accepted an overflowing configuration")
				}
			}()
			cfg := spec.Config()
			if perRouter > 0 {
				cfg.PerRouter = perRouter
			}
			pattern, err := spec.Pattern("uniform", 1)
			if err != nil {
				t.Fatal(err)
			}
			NewEngine(p, spec.Graph, cfg, spec.MinRouting(), pattern)
		})
	}
	p := DefaultParams(1)
	mustPanic("endpoints", p, maxEndpoint/spec.Graph.N()+1)
	long := DefaultParams(1)
	long.Warmup, long.Measure, long.Drain = int(maxCycle/2), int(maxCycle/2), 0
	mustPanic("cycles", long, 0)
}
