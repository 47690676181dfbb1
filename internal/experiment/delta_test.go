package experiment

import (
	"context"
	"fmt"
	"testing"

	"aggrate/internal/scenario"
)

// TestGreedyColorsFlatInDelta pins the paper's headline on its Δ axis: the
// greedy schedule's period does not grow with the length diversity Δ. Over
// annuli whose radii span 2, 6 and 12 decades (log Δ growing sixfold), every
// spec must SINR-verify, and for each power/graph pair the largest color
// count may exceed the smallest by at most 25%. A strategy whose period grows
// with the number of length classes — the per-class interleave, Σ_c χ_c =
// Θ(log Δ) — fails the ratio bound.
func TestGreedyColorsFlatInDelta(t *testing.T) {
	const n = 4000
	pairs := []struct{ power, graph string }{
		{PowerMean, GraphOblivious},
		{PowerGlobal, GraphArbitrary},
	}
	var specs []Spec
	for _, rmax := range []float64{1e2, 1e6, 1e12} {
		// A distinct preset name per radius keeps spec keys (and so the
		// batch's deployment cache entries) apart.
		sc := scenario.Spec{Gen: scenario.Annulus{RMin: 1, RMax: rmax}, Preset: fmt.Sprintf("annulus-%g", rmax)}
		for seed := uint64(1); seed <= 3; seed++ {
			for _, p := range pairs {
				spec := NewSpec(sc, n, seed)
				spec.Power, spec.Graph = p.power, p.graph
				specs = append(specs, spec)
			}
		}
	}
	results := RunBatch(context.Background(), specs, 2)
	for _, p := range pairs {
		lo, hi := 0, 0
		for i, r := range results {
			if specs[i].Power != p.power {
				continue
			}
			if r.Err != "" || !r.Verified {
				t.Fatalf("%s n=%d seed=%d %s/%s: verified=%v error=%q",
					r.Scenario, n, r.Seed, p.power, p.graph, r.Verified, r.Err)
			}
			t.Logf("%s seed=%d %s/%s: %d colors, γ=%g", r.Scenario, r.Seed, p.power, p.graph, r.Colors, r.GammaUsed)
			if lo == 0 || r.Colors < lo {
				lo = r.Colors
			}
			hi = max(hi, r.Colors)
		}
		if ratio := float64(hi) / float64(lo); ratio > 1.25 {
			t.Errorf("%s/%s: colors range %d..%d over Δ (ratio %.2f > 1.25): the period grows with Δ",
				p.power, p.graph, lo, hi, ratio)
		}
	}
}
