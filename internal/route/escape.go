package route

import "polarstar/internal/graph"

// TreeEscape routes around failed links over edge-disjoint spanning
// trees (the Dawkins et al. companion-work structure, §6.1.1): each tree
// yields one up-down src→LCA→dst path, and because the trees are
// pairwise edge-disjoint, a single failed link invalidates the path of
// at most one tree. The simulator uses it as the escape router when all
// minimal next hops of an analytically routed topology are down; its
// paths are simple (tree paths are vertex-simple), so they stay
// deadlock-free under the simulator's strictly-increasing VC ladder.
//
// TreeEscape is immutable after construction and safe for concurrent
// readers: AppendPath keeps its working set in stack-local arrays.
type TreeEscape struct {
	trees []upDownTree
}

// NewTreeEscape extracts up to maxTrees edge-disjoint spanning trees of g
// (deterministic per seed) and prepares them for liveness-checked path
// queries. It shares EdgeDisjointSpanningTrees's error contract:
// maxTrees <= 0 is ErrTreeCount and a graph with no spanning tree is
// ErrDisconnected. Callers that can live without escape paths (the
// simulator's fault machinery) may fall back to a zero TreeEscape, whose
// AppendPath always fails over to its caller's last resort.
func NewTreeEscape(g *graph.Graph, maxTrees int, seed int64) (*TreeEscape, error) {
	trees, err := EdgeDisjointSpanningTrees(g, 0, maxTrees, seed)
	if err != nil {
		return nil, err
	}
	te := &TreeEscape{}
	for _, tr := range trees {
		t, _ := newUpDownTree(tr)
		te.trees = append(te.trees, t)
	}
	return te, nil
}

// Trees returns the number of escape trees available.
func (te *TreeEscape) Trees() int { return len(te.trees) }

// AppendPath appends the shortest fully-live up-down tree path from src
// to dst onto buf and returns the extended slice (buf unchanged when no
// tree offers one). live reports whether the directed link u→v is
// usable; nil means every link is live. Ties between equally short tree
// paths break toward the lowest tree index, so results are deterministic.
func (te *TreeEscape) AppendPath(buf []int, src, dst int, live func(u, v int) bool) []int {
	n0 := len(buf)
	for i := range te.trees {
		// Only a strictly shorter path can replace the best so far; a
		// tree that offers none leaves buf (and the best) untouched.
		maxHops := 2 * maxTreeDepth
		if len(buf) > n0 {
			maxHops = len(buf) - n0 - 2
		}
		if p := te.trees[i].appendPath(buf[:n0], src, dst, maxHops, live); len(p) > n0 {
			buf = p
		}
	}
	return buf
}
