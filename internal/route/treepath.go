package route

// upDownTree is one rooted spanning tree prepared for up-down path
// queries: the shared per-tree state of both tree routers, TreeEscape
// (escape role) and MultiPath (lane role). Immutable after construction;
// appendPath keeps its working set in stack-local arrays, so concurrent
// readers are safe.
type upDownTree struct {
	parent []int32 // vertex -> parent (-1 root, -2 unreached)
	depth  []int32 // vertex -> depth below the root (-1 unreached)
}

// maxTreeDepth bounds the endpoint depth appendPath handles (its two
// stack arrays hold one ascent each). Deeper endpoints get no tree path;
// simulator paths are capped far below anyway.
const maxTreeDepth = 64

// newUpDownTree prepares t for path queries and returns its depth (the
// deepest vertex's distance from the root).
func newUpDownTree(t *SpanningTree) (upDownTree, int) {
	depth, max := treeDepths(t.Parent)
	return upDownTree{parent: t.Parent, depth: depth}, max
}

// treeDepths returns every vertex's depth below the root of a parent
// array (-1 for vertices without a root chain) and the maximum depth.
// Each vertex walks up to the first ancestor of known depth, then fills
// its chain back down, so every vertex is assigned exactly once.
func treeDepths(parent []int32) ([]int32, int) {
	depth := make([]int32, len(parent))
	for i := range depth {
		depth[i] = -1
	}
	max := 0
	for v := range parent {
		u, k := int32(v), int32(0)
		for depth[u] < 0 && parent[u] >= 0 {
			u, k = parent[u], k+1
		}
		if depth[u] < 0 {
			if parent[u] != -1 {
				continue // unreached: no chain to the root
			}
			depth[u] = 0
		}
		if d := int(depth[u] + k); d > max {
			max = d
		}
		for w := int32(v); depth[w] < 0; w, k = parent[w], k-1 {
			depth[w] = depth[u] + k
		}
	}
	return depth, max
}

// appendPath appends the tree's up-down path src→LCA→dst onto buf and
// returns the extended slice — buf unchanged for src == dst, for an
// endpoint outside the tree or at depth maxTreeDepth or more, for a path
// of more than maxHops hops, and for a path crossing a directed link
// live reports dead (nil live means every link is up). The hop bound is
// checked before liveness.
func (t *upDownTree) appendPath(buf []int, src, dst, maxHops int, live func(u, v int) bool) []int {
	a, b := int32(src), int32(dst)
	da, db := t.depth[a], t.depth[b]
	if a == b || da < 0 || db < 0 || da >= maxTreeDepth || db >= maxTreeDepth {
		return buf
	}
	var up, down [maxTreeDepth]int32
	nu, nd := 0, 0
	for a != b {
		if da >= db {
			up[nu] = a
			nu++
			a, da = t.parent[a], da-1
		} else {
			down[nd] = b
			nd++
			b, db = t.parent[b], db-1
		}
	}
	if nu+nd > maxHops {
		return buf
	}
	if live != nil {
		for i := 0; i < nu; i++ {
			next := a
			if i+1 < nu {
				next = up[i+1]
			}
			if !live(int(up[i]), int(next)) {
				return buf
			}
		}
		prev := a
		for i := nd - 1; i >= 0; i-- {
			if !live(int(prev), int(down[i])) {
				return buf
			}
			prev = down[i]
		}
	}
	for _, v := range up[:nu] {
		buf = append(buf, int(v))
	}
	buf = append(buf, int(a))
	for i := nd - 1; i >= 0; i-- {
		buf = append(buf, int(down[i]))
	}
	return buf
}
