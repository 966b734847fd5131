package route

import (
	"math/rand"
	"testing"

	"polarstar/internal/topo"
)

// appendPathAllocs measures steady-state heap allocations of AppendPath
// over a mix of vertex pairs, after warming the buffer to its high-water
// capacity.
func appendPathAllocs(t *testing.T, e Engine, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 0, 64)
	pair := 0
	return testing.AllocsPerRun(200, func() {
		src := pair % n
		dst := (pair*7 + 13) % n
		pair++
		buf = e.AppendPath(buf[:0], src, dst, rng)
	})
}

// TestAppendPathZeroAllocs is the hot-path regression guard: routing a
// packet through the analytic PolarStar router or a table engine must not
// touch the heap.
func TestAppendPathZeroAllocs(t *testing.T) {
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]Engine{
		"polarstar": NewPolarStar(ps),
		"table-mp":  NewTable(ps.G, AllMinPaths),
		"table-sp":  NewTable(ps.G, SinglePath),
	}
	if hx, err := topo.NewHyperX(4, 4, 4); err == nil {
		engines["hyperx"] = NewHyperX(hx)
	}
	if bf, err := topo.NewBundlefly(5, 2); err == nil {
		engines["bundlefly"] = NewBundlefly(bf)
	}
	for name, e := range engines {
		n := ps.G.N()
		if name == "hyperx" {
			n = 64
		}
		if name == "bundlefly" {
			n = 150
		}
		if allocs := appendPathAllocs(t, e, n); allocs != 0 {
			t.Errorf("%s AppendPath allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestAppendViaZeroAllocs covers the Valiant two-phase construction used
// by UGAL.
func TestAppendViaZeroAllocs(t *testing.T) {
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValiant(NewPolarStar(ps), ps.G.N(), 4)
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 0, 64)
	pair := 0
	n := ps.G.N()
	allocs := testing.AllocsPerRun(200, func() {
		src := pair % n
		mid := (pair*5 + 7) % n
		dst := (pair*7 + 13) % n
		pair++
		buf = v.AppendVia(buf[:0], src, mid, dst, rng)
	})
	if allocs != 0 {
		t.Errorf("AppendVia allocates %.1f objects per call, want 0", allocs)
	}
}

// TestDistZeroAllocs guards the engines whose Dist measures a path of
// their own: the path goes into a stack array, never the heap.
func TestDistZeroAllocs(t *testing.T) {
	ps := topo.MustNewPolarStar(5, 4, topo.KindIQ)
	bf := topo.MustNewBundlefly(5, 2)
	ft := topo.MustNewFatTree(4)
	engines := []struct {
		name string
		e    Engine
		n    int // routing domain: vertices 0..n-1
	}{
		{"polarstar", NewPolarStar(ps), ps.G.N()},
		{"bundlefly", NewBundlefly(bf), bf.G.N()},
		{"fattree", NewFatTree(ft), ft.P * ft.P}, // the leaves
	}
	for _, tc := range engines {
		pair := 0
		allocs := testing.AllocsPerRun(200, func() {
			src := pair % tc.n
			dst := (pair*7 + 13) % tc.n
			pair++
			if tc.e.Dist(src, dst) < 0 {
				t.Fatalf("%s: Dist(%d,%d) < 0", tc.name, src, dst)
			}
		})
		if allocs != 0 {
			t.Errorf("%s Dist allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}

// TestTreePathZeroAllocs guards the shared up-down tree walker behind
// TreeEscape.AppendPath and MultiPath.AppendTreePath, liveness filter
// included.
func TestTreePathZeroAllocs(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	n := ps.G.N()
	te, err := NewTreeEscape(ps.G, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMultiPath(ps.G, nil, 3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := func(u, v int) bool { return (u+v)%13 != 0 }
	buf := make([]int, 0, 2*maxTreeDepth+1)
	pair := 0
	allocs := testing.AllocsPerRun(200, func() {
		src := pair % n
		dst := (pair*7 + 13) % n
		pair++
		buf = te.AppendPath(buf[:0], src, dst, live)
		for l := 0; l < mp.TreeLanes(); l++ {
			buf = mp.AppendTreePath(buf[:0], l, src, dst, live)
		}
	})
	if allocs != 0 {
		t.Errorf("tree path queries allocate %.1f objects per call, want 0", allocs)
	}
}
