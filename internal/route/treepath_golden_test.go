package route

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const treePathGoldenFile = "testdata/treepath_golden.json"

// treePathDigest is the golden record of one tree-path query sweep: how
// many ordered pairs got a path, and the SHA-256 of every path in pair
// order.
type treePathDigest struct {
	Paths  int    `json:"paths"`
	SHA256 string `json:"sha256"`
}

// digestPaths runs query over every ordered pair of an n-vertex graph
// and hashes the answers (each path as little-endian int32 vertices
// followed by a -1 terminator, so empty answers count too).
func digestPaths(n int, query func(buf []int, src, dst int) []int) treePathDigest {
	h := sha256.New()
	var word [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(word[:], uint32(int32(v)))
		h.Write(word[:])
	}
	var buf []int
	paths := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			buf = query(buf[:0], src, dst)
			if len(buf) > 0 {
				paths++
			}
			for _, v := range buf {
				put(v)
			}
			put(-1)
		}
	}
	return treePathDigest{Paths: paths, SHA256: hex.EncodeToString(h.Sum(nil))}
}

// goldenDeadLinks fails a fixed link set: every 11th edge in both
// directions and, offset by 5, one direction only, so a walker that
// checks the wrong hop direction changes the digest.
func goldenDeadLinks(g *graph.Graph) func(u, v int) bool {
	dead := map[[2]int]bool{}
	for i, e := range g.Edges() {
		switch i % 11 {
		case 0:
			dead[[2]int{e[0], e[1]}] = true
			dead[[2]int{e[1], e[0]}] = true
		case 5:
			dead[[2]int{e[0], e[1]}] = true
		}
	}
	return func(u, v int) bool { return !dead[[2]int{u, v}] }
}

// TestGoldenTreePaths pins the up-down spanning-tree paths of both tree
// routers — TreeEscape.AppendPath and every MultiPath.AppendTreePath
// lane — over all ordered pairs of four small topologies, with every
// link live and with a fixed dead-link set. The escape trees use the
// simulator's tree count (2) and a wider 4-tree forest, the lanes the
// simulator's lane count (3), hop cap (11) and tree seed (1). Regenerate
// with -update only for an intended path change.
func TestGoldenTreePaths(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ps-iq-small", topo.MustNewPolarStar(5, 4, topo.KindIQ).G},
		{"ps-iq-43", topo.MustNewPolarStar(4, 3, topo.KindIQ).G},
		{"bf-small", topo.MustNewBundlefly(5, 2).G},
		{"hx-small", topo.MustNewHyperX(4, 4, 4).G},
	}
	got := map[string]treePathDigest{}
	for _, tc := range graphs {
		n := tc.g.N()
		lives := []struct {
			name string
			live func(u, v int) bool
		}{{"live", nil}, {"dead", goldenDeadLinks(tc.g)}}
		for _, esc := range []struct{ trees, seed int }{{2, 7}, {4, 3}} {
			te, err := NewTreeEscape(tc.g, esc.trees, int64(esc.seed))
			if err != nil {
				t.Fatalf("%s: NewTreeEscape: %v", tc.name, err)
			}
			for _, lv := range lives {
				key := fmt.Sprintf("%s/escape-%d-seed%d/%s", tc.name, esc.trees, esc.seed, lv.name)
				got[key] = digestPaths(n, func(buf []int, src, dst int) []int {
					return te.AppendPath(buf, src, dst, lv.live)
				})
			}
		}
		mp, err := NewMultiPath(tc.g, nil, 3, 11, 1)
		if err != nil {
			t.Fatalf("%s: NewMultiPath: %v", tc.name, err)
		}
		for l := 0; l < mp.TreeLanes(); l++ {
			for _, lv := range lives {
				key := fmt.Sprintf("%s/lane-%d/%s", tc.name, l, lv.name)
				got[key] = digestPaths(n, func(buf []int, src, dst int) []int {
					return mp.AppendTreePath(buf, l, src, dst, lv.live)
				})
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(treePathGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(treePathGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(treePathGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]treePathDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: case missing", key)
		} else if g != w {
			t.Errorf("%s: got %d paths sha256 %s, want %d paths sha256 %s", key, g.Paths, g.SHA256, w.Paths, w.SHA256)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: case not in %s", key, treePathGoldenFile)
		}
	}
}
