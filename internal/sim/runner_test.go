package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestSweepErrorCancels pins the failure path of Sweep: an error must be
// returned, no goroutine may be left behind (the feeder used to block on
// its channel send forever once the workers exited), and the remaining
// load points must not be simulated.
func TestSweepErrorCancels(t *testing.T) {
	spec := MustNewSpec("ps-iq-small")
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 100, 100, 100
	before := runtime.NumGoroutine()
	// An unknown pattern fails inside every worker, on every load point.
	res, err := Sweep(spec, MIN, "no-such-pattern", DefaultLoads, p, nil)
	if err == nil {
		t.Fatal("Sweep with an unknown pattern returned no error")
	}
	for i, pt := range res.Points {
		if pt != (Result{}) {
			t.Errorf("load point %d was simulated after the failure: %+v", i, pt)
		}
	}
	// The feeder goroutine drains on the error signal; give the runtime
	// a moment to reap it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before Sweep, %d after", before, got)
	}
}

// TestSweepWorkerBudget checks the two-level worker split: an explicit
// Params.Workers is honored and the auto setting still completes.
func TestSweepWorkerBudget(t *testing.T) {
	spec := MustNewSpec("ps-iq-small")
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 100, 200, 300
	loads := []float64{0.1, 0.3}
	auto, err := Sweep(spec, MIN, "uniform", loads, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = numShards
	pinned, err := Sweep(spec, MIN, "uniform", loads, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loads {
		if auto.Points[i] != pinned.Points[i] {
			t.Errorf("load %.2f: auto-worker result %+v != pinned %+v", loads[i], auto.Points[i], pinned.Points[i])
		}
	}
}
