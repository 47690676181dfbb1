package mst

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/scenario"
)

func BenchmarkEMSTLarge(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	n := 500000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 1e6, Y: r.Float64() * 1e6}
	}
	var st emstStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := emstCtx(context.Background(), pts, &st)
		if err != nil || len(e) != n-1 {
			b.Fatal("bad edge count")
		}
	}
	// Pruning visibility: a regression that stops whole-subtree skipping
	// shows up as skipped_nodes collapsing and pair_tests/op climbing.
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.PairTests), "pair_tests/op")
	b.ReportMetric(float64(st.SkippedNodes), "skipped_nodes")
	b.ReportMetric(float64(st.CachedPoints), "cached_points")
}

// BenchmarkEMSTCachedEdges isolates the cross-round best-edge cache: a
// clustered instance whose components stay separated for many rounds, so
// frontier points re-offer their cached candidate instead of re-querying.
// cached_points collapsing toward zero flags a cache regression.
func BenchmarkEMSTCachedEdges(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	n := 20000
	pts := make([]geom.Point, n)
	// 16 dense clusters on a loose grid: intra-cluster merges finish early
	// while the inter-cluster frontier stays stable across rounds.
	for i := range pts {
		c := i % 16
		cx := float64(c%4) * 1e6
		cy := float64(c/4) * 1e6
		pts[i] = geom.Point{X: cx + r.Float64()*1e5, Y: cy + r.Float64()*1e5}
	}
	var st emstStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := emstCtx(context.Background(), pts, &st)
		if err != nil || len(e) != n-1 {
			b.Fatal("bad edge count")
		}
	}
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.SkippedNodes), "skipped_nodes")
	b.ReportMetric(float64(st.CachedPoints), "cached_points")
}

// BenchmarkEMSTWideDelta runs the annulus-wide preset (log-uniform radii
// over six decades, the large length-diversity regime): nearly all points
// crowd the center at a density a uniform grid cannot follow.
// pair_tests/op is the hardware-independent work figure TestEMSTWorkBound
// gates.
func BenchmarkEMSTWideDelta(b *testing.B) {
	spec := scenario.Presets()["annulus-wide"]
	for _, n := range []int{8000, 50000} {
		pts := spec.Generate(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st emstStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := emstCtx(context.Background(), pts, &st)
				if err != nil || len(e) != n-1 {
					b.Fatal("bad edge count")
				}
			}
			b.ReportMetric(float64(st.PairTests), "pair_tests/op")
		})
	}
}
