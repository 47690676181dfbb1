package conflict

import (
	"context"
	"math"
	"slices"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
)

// clusterLinks generates the MST links of a clustered pointset: k dense
// clusters spread far apart, so intra-cluster links are short and the
// cluster-bridging links are orders of magnitude longer.
func clusterLinks(t testing.TB, n int, seed uint64) []geom.Link {
	t.Helper()
	r := rng.New(seed)
	const k = 8
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{X: r.Float64() * 1e5, Y: r.Float64() * 1e5}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[int(r.Uint64()%k)]
		pts[i] = geom.Point{X: c.X + r.Float64()*50, Y: c.Y + r.Float64()*50}
	}
	tree, err := mst.NewMSTTree(pts, 0)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	return tree.Links
}

// lookaheadFuncs are the three threshold families of the paper, with the
// arbitrary-power graph at the pathological α=2.05 (exponent 40). Their γ is
// a placeholder: every use re-indexes them with At.
func lookaheadFuncs() []Func {
	return []Func{
		Gamma(1),
		PowerLaw(1, 0.5),
		LogThreshold(1, 2.05),
	}
}

// escalationLadder mirrors the experiment loop's γ schedule: start at γ₀ and
// multiply by step, computing each rung (and the lookahead ceiling) by
// iterated multiplication so the floats match the runtime's exactly.
func escalationLadder(gamma0, step float64, retries int) []float64 {
	ladder := []float64{gamma0}
	g := gamma0
	for i := 0; i < retries; i++ {
		g *= step
		ladder = append(ladder, g)
	}
	return ladder
}

// sameEdgeSet asserts two graphs over the same links have identical edge
// sets irrespective of row ordering.
func sameEdgeSet(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s: vertex count mismatch: %d vs %d", label, want.N(), got.N())
	}
	type pair struct{ i, j int32 }
	set := make(map[pair]bool, len(want.Neighbors))
	for i := 0; i < want.N(); i++ {
		for _, j := range want.Row(i) {
			set[pair{int32(i), j}] = true
		}
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: directed edge count mismatch: want %d, got %d",
			label, len(want.Neighbors), len(got.Neighbors))
	}
	for i := 0; i < got.N(); i++ {
		for _, j := range got.Row(i) {
			if !set[pair{int32(i), j}] {
				t.Fatalf("%s: extra edge (%d,%d) not in oracle", label, i, j)
			}
		}
	}
}

// TestLookaheadMatchesBuild is the filter's parity wall: one build at the
// escalation ceiling, filtered down to every ladder rung, must be
// bit-identical — edge set, CSR row order, strengths — to a direct Build at
// that rung, and match the O(n²) BuildNaive oracle's rows, for all three
// threshold families over uniform, cluster, and annulus geometry.
func TestLookaheadMatchesBuild(t *testing.T) {
	cases := []struct {
		name  string
		links []geom.Link
	}{
		{"uniform-500", mstLinks(t, 500, 21, 1000)},
		{"cluster-400", clusterLinks(t, 400, 22)},
		{"annulus-400", annulusLinks(t, 400, 23)},
	}
	ladder := escalationLadder(0.8, 1.5, 4)
	gammaMax := ladder[len(ladder)-1]
	for _, tc := range cases {
		for _, fam := range lookaheadFuncs() {
			full, err := BuildCtx(context.Background(), tc.links, fam.At(gammaMax))
			if err != nil {
				t.Fatalf("%s/%s: BuildCtx: %v", tc.name, fam.Name, err)
			}
			if full.Strengths == nil || len(full.Strengths) != len(full.Neighbors) {
				t.Fatalf("%s/%s: Strengths not parallel to Neighbors: %d vs %d",
					tc.name, fam.Name, len(full.Strengths), len(full.Neighbors))
			}
			for _, gamma := range ladder {
				f := fam.At(gamma)
				filtered, err := full.FilterCtx(context.Background(), gamma)
				if err != nil {
					t.Fatalf("%s/%s γ=%g: FilterCtx: %v", tc.name, fam.Name, gamma, err)
				}
				if filtered.F.Gamma != gamma || filtered.F.Name != fam.Name {
					t.Fatalf("%s/%s γ=%g: filtered F = %s at γ=%g", tc.name, fam.Name, gamma,
						filtered.F.Name, filtered.F.Gamma)
				}
				direct := Build(tc.links, f)
				label := tc.name + "/" + fam.Name
				graphsEqual(t, direct, filtered, label)
				if !slices.Equal(direct.Strengths, filtered.Strengths) {
					t.Fatalf("%s γ=%g: filtered strengths differ from the direct build's", label, gamma)
				}
				naive := BuildNaive(tc.links, f)
				graphsEqual(t, naive, filtered, label+"/naive-oracle")
				if tc.name == "cluster-400" {
					sameEdgeSet(t, naive, filtered, label+"/naive-edge-set")
				}
			}
		}
	}
}

// TestStrengthIsExactBoundary pins the definition of conflict strength: for
// every annotated edge with strength q > 0, the pair conflicts under
// fam.At(q) and does NOT conflict under fam.At(prevfloat(q)) — q is the
// exact float64 boundary of the monotone predicate, which is what makes
// "filter by q ≤ γ" reproduce the direct build at every γ.
func TestStrengthIsExactBoundary(t *testing.T) {
	links := annulusLinks(t, 300, 24)
	for _, fam := range lookaheadFuncs() {
		full, err := BuildCtx(context.Background(), links, fam.At(8))
		if err != nil {
			t.Fatalf("%s: BuildCtx: %v", fam.Name, err)
		}
		checked := 0
		for i := 0; i < full.N(); i++ {
			row := full.Row(i)
			qs := full.Strengths[full.RowPtr[i]:full.RowPtr[i+1]]
			for k, j := range row {
				if int32(i) > j {
					continue // each undirected edge once
				}
				q := qs[k]
				if q < 0 || q > 8 {
					t.Fatalf("%s: edge (%d,%d) strength %g outside [0, γmax]", fam.Name, i, j, q)
				}
				if !Conflicting(fam.At(q), links[i], links[j]) {
					t.Fatalf("%s: edge (%d,%d) does not conflict at its own strength %g", fam.Name, i, j, q)
				}
				if q > 0 {
					below := math.Float64frombits(math.Float64bits(q) - 1)
					if Conflicting(fam.At(below), links[i], links[j]) {
						t.Fatalf("%s: edge (%d,%d) already conflicts below its strength %g", fam.Name, i, j, q)
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no edges checked — fixture too sparse", fam.Name)
		}
	}
}

// TestLookaheadGraphFor covers the caching handle: the first call per link
// set builds, subsequent calls reuse via the filter scan, a γ at the ceiling
// is served by the annotated build directly, and a different link set gets
// its own build rather than a stale cache hit.
func TestLookaheadGraphFor(t *testing.T) {
	links := mstLinks(t, 400, 25, 1000)
	other := mstLinks(t, 400, 26, 1000)
	fam := Gamma(1)
	ladder := escalationLadder(1, 1.5, 2)
	la := NewLookahead(ladder[len(ladder)-1])

	g0, st0, err := la.GraphFor(context.Background(), links, fam, ladder[0])
	if err != nil {
		t.Fatalf("GraphFor: %v", err)
	}
	if st0.Reused || st0.BuildSec <= 0 {
		t.Fatalf("first call must build: %+v", st0)
	}
	graphsEqual(t, Build(links, fam.At(ladder[0])), g0, "first")

	for _, gamma := range ladder[1:] {
		g, st, err := la.GraphFor(context.Background(), links, fam, gamma)
		if err != nil {
			t.Fatalf("GraphFor(γ=%g): %v", gamma, err)
		}
		if !st.Reused || st.BuildSec != 0 {
			t.Fatalf("γ=%g: expected cache reuse, got %+v", gamma, st)
		}
		graphsEqual(t, Build(links, fam.At(gamma)), g, "reused")
	}

	// Different link content: must not be served by the first build.
	gOther, stOther, err := la.GraphFor(context.Background(), other, fam, ladder[0])
	if err != nil {
		t.Fatalf("GraphFor(other): %v", err)
	}
	if stOther.Reused {
		t.Fatal("distinct link set reported as reused")
	}
	graphsEqual(t, Build(other, fam.At(ladder[0])), gOther, "other")

	// Above the ceiling: correct (direct) build, not a cache hit.
	gHigh, stHigh, err := la.GraphFor(context.Background(), links, fam, la.GammaMax()*2)
	if err != nil {
		t.Fatalf("GraphFor(high): %v", err)
	}
	if stHigh.Reused {
		t.Fatal("out-of-coverage γ reported as reused")
	}
	graphsEqual(t, Build(links, fam.At(la.GammaMax()*2)), gHigh, "high")
}

// TestFilterCtxCancel: a canceled context must surface as (nil, err) from
// the filter scan, never as a partially filtered graph.
func TestFilterCtxCancel(t *testing.T) {
	links := mstLinks(t, 2000, 27, 1000)
	fam := Gamma(1)
	full, err := BuildCtx(context.Background(), links, fam.At(4))
	if err != nil {
		t.Fatalf("BuildCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := full.FilterCtx(ctx, 2)
	if err == nil || g != nil {
		t.Fatalf("FilterCtx on canceled ctx: got (%v, %v), want (nil, ctx error)", g, err)
	}
}

// TestFilterRequiresStrengths: filtering a strength-free graph (the
// BuildNaive oracle) is a programming error and must fail loudly instead of
// returning an empty graph.
func TestFilterRequiresStrengths(t *testing.T) {
	links := mstLinks(t, 200, 28, 1000)
	g := BuildNaive(links, Gamma(2))
	if _, err := g.FilterCtx(context.Background(), 1); err == nil {
		t.Fatal("FilterCtx on a strength-free graph succeeded; want error")
	}
}

// FuzzLookaheadMatchesBuild extends the build-parity fuzz wall to the filter
// path: on adversarial small instances (int8 lattice points, ~23 dyadic
// length classes, α≈2 radii), the graph filtered from one build at the
// ladder ceiling must match both the O(n²) BuildNaive oracle and a direct
// Build at every ladder rung, for all three threshold families.
func FuzzLookaheadMatchesBuild(f *testing.F) {
	f.Add(pathologicalSeed())
	f.Add([]byte{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8})
	f.Add([]byte{8, 10, 10, 3, 4, 2, 10, 10, 3, 4, 14, 250, 250, 1, 1, 8, 0, 0, 100, 100, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		links := fuzzLinks(data)
		if len(links) < 2 {
			return
		}
		ladder := escalationLadder(0.8, 1.5, 3)
		gammaMax := ladder[len(ladder)-1]
		for _, fam := range lookaheadFuncs() {
			full, err := BuildCtx(context.Background(), links, fam.At(gammaMax))
			if err != nil {
				t.Fatalf("%s: BuildCtx: %v", fam.Name, err)
			}
			for _, gamma := range ladder {
				fn := fam.At(gamma)
				filtered, err := full.FilterCtx(context.Background(), gamma)
				if err != nil {
					t.Fatalf("%s γ=%g: FilterCtx: %v", fam.Name, gamma, err)
				}
				naive := BuildNaive(links, fn)
				if naive.Edges() != filtered.Edges() {
					t.Fatalf("%s γ=%g: edge count %d (filtered) != %d (naive) on %v",
						fam.Name, gamma, filtered.Edges(), naive.Edges(), links)
				}
				direct := Build(links, fn)
				for i := 0; i < naive.N(); i++ {
					if !slices.Equal(naive.Row(i), filtered.Row(i)) || !slices.Equal(direct.Row(i), filtered.Row(i)) {
						t.Fatalf("%s γ=%g: adjacency of %d differs: naive %v, direct %v, filtered %v on %v",
							fam.Name, gamma, i, naive.Row(i), direct.Row(i), filtered.Row(i), links)
					}
				}
				if !slices.Equal(direct.Strengths, filtered.Strengths) {
					t.Fatalf("%s γ=%g: filtered strengths differ from the direct build's on %v",
						fam.Name, gamma, links)
				}
			}
		}
	})
}
