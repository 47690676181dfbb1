// Package mst builds the aggregation tree: the Euclidean minimum spanning
// tree of the input pointset, oriented toward a sink to form a convergecast
// tree.
//
// The paper's protocol (Sec. 3) uses the MST with edges directed arbitrarily;
// for the convergecast semantics of the simulator, edges point from child to
// parent along the unique sink-rooted orientation. Three constructions are
// provided: EMST, a k-d tree Borůvka that is near-linear whatever the
// density profile and the production path of NewMSTTree; Prim in O(n²) time
// and O(n) memory, the oracle EMST is cross-checked against and its path for
// small or zero-extent inputs; and Kruskal over all pairs as an independent
// second oracle. For collinear pointsets LineMST exploits the 1-D structure
// (connect neighbors in sorted order).
//
// EMST's tree is built once: median splits across the wider axis of each
// node's bounding box, by in-place selection, down to leaves of at most 16
// points, over a slot permutation that keeps every subtree's points
// contiguous. Coordinates, component roots and the per-point state are
// stored by slot. Each Borůvka round tags every node, in one bottom-up
// pass, with the component root common to all its points (or -1), then
// queries each point for its nearest point in another component: scan the
// own leaf, then walk up the ancestors, searching each sibling subtree
// nearer child first, skipping subtrees tagged with the point's own
// component or whose box lies beyond the component's best candidate so
// far, and stop once the point's distance to the current node's split
// region boundary exceeds that bound, since every point outside the node
// is at least that far. Candidates are ordered by Kruskal's edge order
// (squared distance, then the sorted endpoint pair of point indices), and
// every pruning test is strict, so equal-weight candidates are always
// compared and the result is exact even on tie-heavy inputs; on pointsets
// with distinct pairwise distances (all jittered generators) the MST is
// unique and all three constructions agree edge-for-edge.
package mst

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aggrate/internal/geom"
	"aggrate/internal/unionfind"
)

// Edge is an undirected tree edge between two point indices.
type Edge struct {
	U, V   int
	Weight float64
}

// Prim computes the Euclidean MST of pts with the O(n²) dense-graph variant
// of Prim's algorithm (the right tool for a complete geometric graph).
// It returns n-1 edges; a nil slice for n < 2.
func Prim(pts []geom.Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	const none = -1
	inTree := make([]bool, n)
	bestDist := make([]float64, n) // squared distance to the tree
	bestFrom := make([]int, n)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = none
	}
	edges := make([]Edge, 0, n-1)
	cur := 0
	inTree[0] = true
	for len(edges) < n-1 {
		// Relax distances through the vertex added last.
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if d := pts[cur].Dist2(pts[v]); d < bestDist[v] {
				bestDist[v] = d
				bestFrom[v] = cur
			}
		}
		// Pick the closest fringe vertex.
		next := none
		nd := math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && bestDist[v] < nd {
				nd = bestDist[v]
				next = v
			}
		}
		if next == none {
			// Unreachable for finite coordinates, but fail loudly rather
			// than loop forever if a NaN coordinate sneaks in.
			panic("mst: disconnected geometric graph (NaN coordinates?)")
		}
		edges = append(edges, Edge{U: bestFrom[next], V: next, Weight: math.Sqrt(nd)})
		inTree[next] = true
		cur = next
	}
	return edges
}

// Kruskal computes the Euclidean MST by sorting all O(n²) pairs and adding
// them greedily with a union-find. It exists as an independent
// cross-check of Prim and for tests; Prim is the default.
func Kruskal(pts []geom.Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	all := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, Edge{U: i, V: j, Weight: pts[i].Dist(pts[j])})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Weight != all[b].Weight {
			return all[a].Weight < all[b].Weight
		}
		// Deterministic tie-break so Prim/Kruskal agree on grids.
		if all[a].U != all[b].U {
			return all[a].U < all[b].U
		}
		return all[a].V < all[b].V
	})
	dsu := unionfind.New(n)
	edges := make([]Edge, 0, n-1)
	for _, e := range all {
		if dsu.Union(e.U, e.V) {
			edges = append(edges, e)
			if len(edges) == n-1 {
				break
			}
		}
	}
	return edges
}

// emstCutoff is the pointset size below which the dense Prim is faster than
// building the k-d tree.
const emstCutoff = 256

// emstLeaf is the k-d tree's leaf capacity: median splits stop once a node
// holds at most this many points, and a leaf is scanned point by point.
const emstLeaf = 16

// EMST computes the Euclidean MST with Borůvka's algorithm over a k-d tree
// (single-tree Borůvka; March, Ram & Gray, KDD 2010): each round finds, for
// every component, its minimum outgoing edge by a nearest-foreign-neighbor
// query per point, bounded by the component's best candidate so far, then
// merges components along the selected edges. Components halve per round,
// so there are O(log n) rounds; the shared per-component bound and the
// per-round subtree tags prune almost every interior point's query, and the
// median splits follow the density, so the work stays near-linear however
// unevenly the points are spread.
//
// Exactness: Borůvka is exact whenever each component selects a true
// minimum outgoing edge under a total order on edges; candidates are
// compared by (squared distance, sorted endpoint pair), Kruskal's order, so
// ties cannot produce a non-minimum tree. Zero-extent inputs fall back to
// Prim. A non-finite coordinate has no place in a distance order, nor does
// an extent whose squared distances overflow: EMST panics on either, with
// the message EMSTCtx returns as an error.
func EMST(pts []geom.Point) []Edge {
	edges, err := EMSTCtx(context.Background(), pts) // Background never cancels
	if err != nil {
		panic(err)
	}
	return edges
}

// emstStats counts the work of one EMSTCtx run, for tests, benchmarks and
// regression visibility (the benchmarks report them as custom metrics).
type emstStats struct {
	// Rounds is the number of Borůvka rounds.
	Rounds int
	// PairTests counts point-pair distance evaluations, summed over rounds:
	// the hardware-independent measure of query work.
	PairTests int
	// SkippedNodes counts k-d nodes (own leaves and searched subtrees) that
	// a query skipped whole because their per-round tag showed every point
	// under them in the querying point's own component, summed over rounds.
	SkippedNodes int
	// CachedPoints counts points whose query was replaced by a cached
	// best-edge candidate from an earlier round, summed over rounds.
	CachedPoints int
}

// EMSTCtx is EMST with cancellation, checked once per Borůvka round
// (components halve per round, so the first round — the bulk of the work —
// is the longest uncancellable window). On cancellation it returns
// (nil, ctx.Err()); a partial edge set is never returned. A NaN or infinite
// coordinate is an error naming the first such point, and so is an extent
// too wide for its squared distances to stay finite.
func EMSTCtx(ctx context.Context, pts []geom.Point) ([]Edge, error) {
	return emstCtx(ctx, pts, nil)
}

func emstCtx(ctx context.Context, pts []geom.Point, st *emstStats) ([]Edge, error) {
	// Checked once, before any comparison-based code sees the keys: a NaN
	// compares false both ways, which would starve Prim of a next vertex
	// and stall a partition loop.
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("mst: point %d has a non-finite coordinate (%g, %g)", i, p.X, p.Y)
		}
	}
	lo, hi := geom.BoundingBox(pts)
	ext := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	if math.IsInf(2*ext*ext, 1) {
		return nil, fmt.Errorf("mst: coordinate extent %g overflows squared distances", ext)
	}
	n := len(pts)
	if n < emstCutoff || !(ext > 0) {
		return Prim(pts), nil
	}
	// Borůvka runs in slot space: the tree build permutes the slots so every
	// node's points are contiguous, and the coordinates, component roots,
	// union-find, per-component bests and champion cache are all indexed by
	// slot. Components are spatially compact, so their roots, and every array
	// indexed by them, stay local to the leaf being scanned. members maps a
	// slot back to its point index, for Kruskal's tie order and the output.
	members := make([]int32, n)
	xsM := make([]float64, n)
	ysM := make([]float64, n)
	for i, p := range pts {
		members[i] = int32(i)
		xsM[i], ysM[i] = p.X, p.Y
	}
	q := &kdQuery{
		tr:      newKDTree(xsM, ysM, members),
		xs:      xsM,
		ys:      ysM,
		members: members,
		rootM:   make([]int32, n),
	}
	q.nodeRoot = make([]int32, len(q.tr.nodes))
	rootM := q.rootM

	// Cross-round champion cache. candJ[k]/candD2[k] hold a pair (k, j)
	// that was the component's best candidate at the moment k's query
	// ended: such a pair precedes every pair k examined (the shared best is
	// a running minimum over them) and every pair k pruned (the box and
	// region bounds discard only pairs strictly worse than the bound, which
	// at that moment was this pair's own weight) — so it is k's exact
	// Kruskal-order minimum outgoing pair. Merges only shrink the foreign
	// set, so the pair stays k's minimum in every later round until j's
	// component merges with k's; while it does, k offers the cached pair and
	// skips its query outright.
	candJ := make([]int32, n)
	candD2 := make([]float64, n)
	for k := range candJ {
		candJ[k] = -1
	}

	dsu := unionfind.New(n)
	edges := make([]Edge, 0, n-1)
	bestD2 := make([]float64, n) // indexed by component root
	bestU := make([]int32, n)
	bestV := make([]int32, n)
	roots := make([]int32, 0, n)
	var stats emstStats
	for len(edges) < n-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// rootM memoizes dsu.Find for the duration of one round (roots only
		// change at the merge step).
		roots = roots[:0]
		for k := range rootM {
			r := int32(dsu.Find(k))
			rootM[k] = r
			if r == int32(k) {
				bestD2[k] = math.Inf(1)
				bestU[k], bestV[k] = -1, -1
				roots = append(roots, r)
			}
		}
		q.tr.tag(rootM, q.nodeRoot)
		stats.Rounds++
		// Minimum outgoing edge per component, one query per slot in order.
		// Order cannot change the selected edges — every pruning rule
		// discards only pairs strictly worse than the component's best at
		// that moment, which bestD2's monotone decrease makes strictly worse
		// than the final best, so each root still ends at the total-order
		// minimum of its outgoing pairs. Only the stats counters are
		// order-sensitive.
		for _, leaf := range q.tr.leaves {
			nd := &q.tr.nodes[leaf]
			for k := nd.lo; k < nd.hi; k++ {
				r := rootM[k]
				// Cached champion pair: while candJ[k] is still foreign it
				// remains k's exact minimum outgoing pair — offer it and skip
				// the query. The cache is left in place; it stays valid until
				// candJ[k]'s component merges in.
				if j := candJ[k]; j >= 0 && rootM[j] != r {
					if d2 := candD2[k]; d2 < bestD2[r] || (d2 == bestD2[r] && pairLess(members, k, j, bestU[r], bestV[r])) {
						bestD2[r] = d2
						bestU[r], bestV[r] = k, j
					}
					stats.CachedPoints++
					continue
				}
				bd, bu, bv := q.query(leaf, k, r, bestD2[r], bestU[r], bestV[r])
				bestD2[r], bestU[r], bestV[r] = bd, bu, bv
				// Champion cache write: if k still supplies the shared best
				// as its query ends, that pair is k's exact minimum outgoing
				// pair (see candJ above). Otherwise any previous cache entry
				// has already failed its validity check, so clear it.
				if bu == k {
					candJ[k], candD2[k] = bv, bd
				} else if candJ[k] >= 0 {
					candJ[k] = -1
				}
			}
		}
		// Merge along the selected edges.
		progressed := false
		for _, r := range roots {
			if bestV[r] < 0 {
				continue
			}
			if dsu.Union(int(bestU[r]), int(bestV[r])) {
				edges = append(edges, Edge{
					U: int(members[bestU[r]]), V: int(members[bestV[r]]),
					Weight: math.Sqrt(bestD2[r]),
				})
				progressed = true
			}
		}
		if !progressed {
			// No component found an outgoing edge (a bound inversion): the
			// dense oracle handles what the tree cannot.
			return Prim(pts), nil
		}
	}
	if st != nil {
		stats.PairTests, stats.SkippedNodes = q.pairTests, q.skipped
		*st = stats
	}
	return edges, nil
}

// kdTree is a median-split 2-d tree over a slot permutation of the points,
// with nodes in preorder: a node's left child is the next node, and every
// subtree owns one contiguous slot range.
type kdTree struct {
	nodes  []kdNode
	leaves []int32 // leaf nodes in slot order
}

// kdNode is one k-d tree node. A search reads a node's box, region and
// links together, so they share a node record.
type kdNode struct {
	// Bounding box of the node's points.
	bx0, by0, bx1, by1 float64
	// Split region: the rectangle the ancestors' splits assign to the node,
	// ±Inf where unbounded. Splits are closed on both sides, so every point
	// outside the subtree lies on or beyond the region's boundary.
	rx0, ry0, rx1, ry1 float64
	lo, hi             int32 // slot range [lo, hi) of the node's points
	right              int32 // right child, or -1 for a leaf (the left child is node+1)
	parent             int32 // -1 for the root
}

// newKDTree builds the tree over the slots of xs/ys, permuting xs, ys and
// members together in place.
func newKDTree(xs, ys []float64, members []int32) *kdTree {
	n := len(xs)
	// Halving splits leave every leaf at least emstLeaf/2 points, which
	// bounds the leaf count, and a binary tree has one fewer internal node.
	c := 2 * (n/(emstLeaf/2) + 1)
	t := &kdTree{nodes: make([]kdNode, 0, c), leaves: make([]int32, 0, c/2)}
	inf := math.Inf(1)
	t.build(xs, ys, members, 0, int32(n), -1, -inf, -inf, inf, inf)
	return t
}

// build appends the node for slots [lo, hi) with the given parent and split
// region, recursing into a median split across the wider axis of the
// points' bounding box, and returns the node's index.
func (t *kdTree) build(xs, ys []float64, members []int32, lo, hi, parent int32, rx0, ry0, rx1, ry1 float64) int32 {
	nd := kdNode{
		bx0: xs[lo], by0: ys[lo], bx1: xs[lo], by1: ys[lo],
		rx0: rx0, ry0: ry0, rx1: rx1, ry1: ry1,
		lo: lo, hi: hi, right: -1, parent: parent,
	}
	for k := lo + 1; k < hi; k++ {
		if x := xs[k]; x < nd.bx0 {
			nd.bx0 = x
		} else if x > nd.bx1 {
			nd.bx1 = x
		}
		if y := ys[k]; y < nd.by0 {
			nd.by0 = y
		} else if y > nd.by1 {
			nd.by1 = y
		}
	}
	x := int32(len(t.nodes))
	t.nodes = append(t.nodes, nd)
	if hi-lo <= emstLeaf {
		t.leaves = append(t.leaves, x)
		return x
	}
	// After the select, slots [lo, mid) hold keys ≤ the split value and
	// [mid, hi) keys ≥ it: the two closed half-planes of the children.
	mid := lo + (hi-lo)/2
	if nd.bx1-nd.bx0 >= nd.by1-nd.by0 {
		kdSelect(xs, ys, members, lo, hi, mid)
		s := xs[mid]
		t.build(xs, ys, members, lo, mid, x, rx0, ry0, s, ry1)
		t.nodes[x].right = t.build(xs, ys, members, mid, hi, x, s, ry0, rx1, ry1)
	} else {
		kdSelect(ys, xs, members, lo, hi, mid)
		s := ys[mid]
		t.build(xs, ys, members, lo, mid, x, rx0, ry0, rx1, s)
		t.nodes[x].right = t.build(xs, ys, members, mid, hi, x, rx0, s, rx1, ry1)
	}
	return x
}

// kdSelect reorders slots [lo, hi) so that key[k] holds the value it would
// have in sorted order, with keys ≤ it before k and keys ≥ it after
// (Hoare's selection, median-of-three pivot), carrying other and members
// along. Equal keys stop both scans and are swapped across, so runs of
// duplicates still split evenly. Keys must not be NaN.
func kdSelect(key, other []float64, members []int32, lo, hi, k int32) {
	l, r := lo, hi-1
	for l < r {
		a, b, c := key[l], key[l+(r-l)/2], key[r]
		if a > b {
			a, b = b, a
		}
		p := min(b, max(a, c)) // the median of the three
		i, j := l, r
		for i <= j {
			for key[i] < p {
				i++
			}
			for key[j] > p {
				j--
			}
			if i <= j {
				key[i], key[j] = key[j], key[i]
				other[i], other[j] = other[j], other[i]
				members[i], members[j] = members[j], members[i]
				i++
				j--
			}
		}
		// Now [l, j] ≤ p ≤ [i, r], and any slot strictly between holds p.
		if k <= j {
			r = j
		} else if k >= i {
			l = i
		} else {
			return
		}
	}
}

// tag sets nodeRoot[x] to the common component root of every point under
// node x, or -1 if they span components. Children follow their parent in
// preorder, so one reverse sweep tags both children before each parent.
func (t *kdTree) tag(rootM, nodeRoot []int32) {
	for x := len(t.nodes) - 1; x >= 0; x-- {
		nd := &t.nodes[x]
		if c := nd.right; c >= 0 {
			if a := nodeRoot[x+1]; a == nodeRoot[c] {
				nodeRoot[x] = a
			} else {
				nodeRoot[x] = -1
			}
			continue
		}
		rs := rootM[nd.lo:nd.hi]
		cr := rs[0]
		for _, rj := range rs[1:] {
			if rj != cr {
				cr = -1
				break
			}
		}
		nodeRoot[x] = cr
	}
}

// boxDist2 is the squared distance from (px, py) to the node's bounding box.
// Float rounding is monotone, so it never exceeds the computed squared
// distance to any point in the box.
func (nd *kdNode) boxDist2(px, py float64) float64 {
	var dx, dy float64
	if px < nd.bx0 {
		dx = nd.bx0 - px
	} else if px > nd.bx1 {
		dx = px - nd.bx1
	}
	if py < nd.by0 {
		dy = nd.by0 - py
	} else if py > nd.by1 {
		dy = py - nd.by1
	}
	return dx*dx + dy*dy
}

// kdQuery holds one EMST run's slot-indexed state for the per-point
// nearest-foreign-neighbor queries, plus their work counters.
type kdQuery struct {
	tr       *kdTree
	xs, ys   []float64
	members  []int32
	rootM    []int32 // component root per slot, this round
	nodeRoot []int32 // per-node tag, this round (see kdTree.tag)
	stack    []kdEntry

	pairTests, skipped int
}

// kdEntry is a pending subtree of a search with its box distance.
type kdEntry struct {
	node int32
	d2   float64
}

// query folds into the candidate (bd, bu, bv) every pair (k, j) with k the
// querying slot, in leaf, and j a slot outside k's component r, and returns
// the Kruskal-order minimum. It scans the own leaf, then walks up the
// ancestors, searching each one's other child, until the squared distance
// from k to the current node's split region boundary exceeds the bound:
// every point outside the node lies at least that far away. Every pruning
// test is a strict comparison against bd, so a pair tying the bound is
// always examined and ties resolve exactly.
func (q *kdQuery) query(leaf, k, r int32, bd float64, bu, bv int32) (float64, int32, int32) {
	nodes := q.tr.nodes
	px, py := q.xs[k], q.ys[k]
	if q.nodeRoot[leaf] == r {
		q.skipped++
	} else {
		bd, bu, bv = q.scan(nodes[leaf].lo, nodes[leaf].hi, r, k, px, py, bd, bu, bv)
	}
	for x := leaf; x != 0; {
		nd := &nodes[x]
		if a, b, c, d := px-nd.rx0, nd.rx1-px, py-nd.ry0, nd.ry1-py; a*a > bd && b*b > bd && c*c > bd && d*d > bd {
			break
		}
		p := nd.parent
		s := p + 1
		if s == x {
			s = nodes[p].right
		}
		if q.nodeRoot[s] == r {
			q.skipped++
		} else if d := nodes[s].boxDist2(px, py); d <= bd {
			bd, bu, bv = q.search(kdEntry{s, d}, r, k, px, py, bd, bu, bv)
		}
		x = p
	}
	return bd, bu, bv
}

// search folds the subtree s, already admitted with its box distance, into
// querying slot i's candidate, depth first and nearer child first, skipping
// subtrees tagged with i's component r and subtrees whose box lies strictly
// beyond the bound.
func (q *kdQuery) search(s kdEntry, r, i int32, px, py, bd float64, bu, bv int32) (float64, int32, int32) {
	nodes := q.tr.nodes
	stack := append(q.stack[:0], s)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.d2 > bd {
			continue
		}
		x := e.node
		nd := &nodes[x]
		if nd.right < 0 {
			bd, bu, bv = q.scan(nd.lo, nd.hi, r, i, px, py, bd, bu, bv)
			continue
		}
		top := len(stack)
		for _, c := range [2]int32{x + 1, nd.right} {
			if q.nodeRoot[c] == r {
				q.skipped++
			} else if d := nodes[c].boxDist2(px, py); d <= bd {
				stack = append(stack, kdEntry{c, d})
			}
		}
		// Pop the nearer child first: it tightens bd soonest.
		if len(stack) == top+2 && stack[top].d2 < stack[top+1].d2 {
			stack[top], stack[top+1] = stack[top+1], stack[top]
		}
	}
	q.stack = stack
	return bd, bu, bv
}

// scan folds the slots [s, e) outside component r into querying slot i's
// candidate.
func (q *kdQuery) scan(s, e, r, i int32, px, py, bd float64, bu, bv int32) (float64, int32, int32) {
	xs, ys, rs := q.xs[s:e], q.ys[s:e], q.rootM[s:e]
	tests := 0
	for k, rk := range rs {
		if rk == r {
			continue
		}
		tests++
		dx := px - xs[k]
		dy := py - ys[k]
		d2 := dx*dx + dy*dy
		if d2 < bd {
			bd = d2
			bu, bv = i, s+int32(k)
		} else if d2 == bd && pairLess(q.members, i, s+int32(k), bu, bv) {
			bu, bv = i, s+int32(k)
		}
	}
	q.pairTests += tests
	return bd, bu, bv
}

// pairLess reports whether slot pair (u, v) precedes slot pair (bu, bv) in
// Kruskal's tie order, the sorted pair of point indices. Only candidates of
// equal weight reach it, and a finite weight always replaces the initial
// (+Inf, -1, -1) best before any tie can arise.
func pairLess(members []int32, u, v, bu, bv int32) bool {
	au, av := minmax32(members[u], members[v])
	cu, cv := minmax32(members[bu], members[bv])
	return au < cu || (au == cu && av < cv)
}

func minmax32(a, b int32) (int32, int32) {
	if a < b {
		return a, b
	}
	return b, a
}

// LineMST computes the MST of a collinear pointset (sorted-neighbor chain).
// The points need not be pre-sorted. It returns an error if the points are
// not all on the x-axis.
func LineMST(pts []geom.Point) ([]Edge, error) {
	if !geom.OnLine(pts) {
		return nil, fmt.Errorf("mst: LineMST requires points on the x-axis")
	}
	n := len(pts)
	if n < 2 {
		return nil, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pts[order[a]].X < pts[order[b]].X })
	edges := make([]Edge, 0, n-1)
	for k := 0; k+1 < n; k++ {
		u, v := order[k], order[k+1]
		edges = append(edges, Edge{U: u, V: v, Weight: pts[u].Dist(pts[v])})
	}
	return edges, nil
}

// TotalWeight sums the edge weights.
func TotalWeight(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.Weight
	}
	return s
}

// Tree is a convergecast tree: an MST rooted at a sink, with every non-sink
// node owning exactly one directed link toward its parent.
type Tree struct {
	// Points is the node set; Sink indexes the root.
	Points []geom.Point
	Sink   int
	// Parent[v] is v's parent, or -1 for the sink.
	Parent []int
	// Children[v] lists v's children.
	Children [][]int
	// Depth[v] is the hop distance from v to the sink (0 at the sink).
	Depth []int
	// Links[k] is the directed link of edge k, from child to parent. There
	// is exactly one link per non-sink node; LinkOf maps nodes to links.
	Links []geom.Link
	// LinkOf[v] is the index into Links of node v's uplink, -1 for the sink.
	LinkOf []int
}

// Build orients the given spanning edges toward the sink and assembles the
// convergecast structure. It returns an error if the edges do not form a
// spanning tree of the pointset or sink is out of range.
func Build(pts []geom.Point, edges []Edge, sink int) (*Tree, error) {
	n := len(pts)
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("mst: sink %d out of range [0,%d)", sink, n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("mst: %d edges cannot span %d points", len(edges), n)
	}
	// CSR adjacency: two counted passes instead of 2(n-1) per-node appends,
	// and the BFS streams each node's neighbors from one contiguous block.
	rowPtr := make([]int32, n+1)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("mst: edge (%d,%d) out of range", e.U, e.V)
		}
		rowPtr[e.U+1]++
		rowPtr[e.V+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	adjFlat := make([]int32, 2*(n-1))
	fill := append([]int32(nil), rowPtr[:n]...)
	for _, e := range edges {
		adjFlat[fill[e.U]] = int32(e.V)
		fill[e.U]++
		adjFlat[fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	t := &Tree{
		Points:   pts,
		Sink:     sink,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Depth:    make([]int, n),
		LinkOf:   make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.LinkOf[i] = -1
	}
	// BFS from the sink to orient edges. Connectivity doubles as the
	// spanning-tree check: n-1 edges that reach every node cannot contain a
	// cycle, so no separate union-find pass is needed.
	queue := make([]int32, 1, n)
	queue[0] = int32(sink)
	visited := make([]bool, n)
	visited[sink] = true
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range adjFlat[rowPtr[v]:rowPtr[v+1]] {
			if visited[w] {
				continue
			}
			visited[w] = true
			t.Parent[w] = int(v)
			t.Depth[w] = t.Depth[v] + 1
			queue = append(queue, w)
		}
	}
	for v, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("mst: node %d not reachable from sink (edges do not form a spanning tree)", v)
		}
	}
	// Children, carved from one flat backing array in BFS discovery order —
	// per parent that is its adjacency order, as the row-by-row BFS visits.
	childPtr := make([]int32, n+1)
	for _, w := range queue[1:] {
		childPtr[t.Parent[w]+1]++
	}
	for i := 0; i < n; i++ {
		childPtr[i+1] += childPtr[i]
	}
	childFlat := make([]int, n-1)
	cfill := append([]int32(nil), childPtr[:n]...)
	for _, w := range queue[1:] {
		p := t.Parent[w]
		childFlat[cfill[p]] = int(w)
		cfill[p]++
	}
	for v := 0; v < n; v++ {
		s, e := childPtr[v], childPtr[v+1]
		if s < e {
			t.Children[v] = childFlat[s:e:e]
		}
	}
	// One uplink per non-sink node, ordered by node index for determinism.
	t.Links = make([]geom.Link, 0, n-1)
	for v := 0; v < n; v++ {
		if v == sink {
			continue
		}
		p := t.Parent[v]
		t.LinkOf[v] = len(t.Links)
		t.Links = append(t.Links, geom.NewLink(v, p, pts[v], pts[p]))
	}
	return t, nil
}

// NewMSTTree is the one-call constructor used by the public planner: it
// computes the Euclidean MST of pts (k-d tree Borůvka, with the
// dense Prim as small-input and degenerate-input fallback) and orients it
// toward sink.
func NewMSTTree(pts []geom.Point, sink int) (*Tree, error) {
	return Build(pts, EMST(pts), sink)
}

// NewMSTTreeCtx is NewMSTTree with cancellation of the Borůvka rounds; see
// EMSTCtx.
func NewMSTTreeCtx(ctx context.Context, pts []geom.Point, sink int) (*Tree, error) {
	edges, err := EMSTCtx(ctx, pts)
	if err != nil {
		return nil, err
	}
	return Build(pts, edges, sink)
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Points) }

// SubtreeSizes returns, for each node, the number of nodes in its subtree
// (including itself). The sink's entry equals n.
func (t *Tree) SubtreeSizes() []int {
	n := t.N()
	size := make([]int, n)
	// Process nodes in decreasing depth so children are done before parents.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.Depth[order[a]] > t.Depth[order[b]] })
	for _, v := range order {
		size[v] = 1
		for _, c := range t.Children[v] {
			size[v] += size[c]
		}
	}
	return size
}

// PathToSink returns the node sequence from v up to the sink, inclusive.
func (t *Tree) PathToSink(v int) []int {
	path := []int{v}
	for t.Parent[v] != -1 {
		v = t.Parent[v]
		path = append(path, v)
	}
	return path
}

// Validate re-checks the structural invariants (acyclic, spanning, depths
// consistent, one uplink per non-sink node). It is cheap and called by the
// end-to-end plan verifier.
func (t *Tree) Validate() error {
	n := t.N()
	if t.Sink < 0 || t.Sink >= n {
		return fmt.Errorf("mst: invalid sink %d", t.Sink)
	}
	if t.Parent[t.Sink] != -1 {
		return fmt.Errorf("mst: sink has parent %d", t.Parent[t.Sink])
	}
	if len(t.Links) != n-1 {
		return fmt.Errorf("mst: %d links for %d nodes", len(t.Links), n)
	}
	for v := 0; v < n; v++ {
		if v == t.Sink {
			continue
		}
		p := t.Parent[v]
		if p < 0 || p >= n {
			return fmt.Errorf("mst: node %d has invalid parent %d", v, p)
		}
		if t.Depth[v] != t.Depth[p]+1 {
			return fmt.Errorf("mst: depth invariant broken at node %d", v)
		}
		k := t.LinkOf[v]
		if k < 0 || k >= len(t.Links) {
			return fmt.Errorf("mst: node %d has invalid uplink index %d", v, k)
		}
		if l := t.Links[k]; l.Sender != v || l.Receiver != p {
			return fmt.Errorf("mst: uplink of node %d is %v", v, l)
		}
	}
	return nil
}
