package conflict

import (
	"math"
	"slices"
	"testing"

	"aggrate/internal/geom"
)

// fuzzLinks decodes fuzz bytes into a small link set. The encoding is chosen
// to hit the bucketed build's hard cases on purpose:
//
//   - endpoints live on a small int8 lattice, so duplicate and collinear
//     points are common;
//   - the receiver offset is scaled by 2^(e-8)/8 for e ∈ [0, 16], so link
//     lengths span ~23 dyadic classes within one instance (near-zero lengths
//     included) and length diversity reaches ~10^7 — enough to push
//     LogThreshold(γ, α≈2) search radii far beyond the instance extent.
//
// Byte layout: data[0] is the link count (2–25), then 5 bytes per link:
// sender x, sender y, receiver dx, receiver dy (int8), exponent.
func fuzzLinks(data []byte) []geom.Link {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%24 + 2
	var links []geom.Link
	for k := 0; k < n; k++ {
		b := data[1+5*k:]
		if len(b) < 5 {
			break
		}
		sx := float64(int8(b[0]))
		sy := float64(int8(b[1]))
		scale := math.Ldexp(1, int(b[4]%17)-8) / 8
		rx := sx + float64(int8(b[2]))*scale
		ry := sy + float64(int8(b[3]))*scale
		links = append(links, geom.NewLink(2*k, 2*k+1,
			geom.Point{X: sx, Y: sy}, geom.Point{X: rx, Y: ry}))
	}
	return links
}

// fuzzFuncs are the three threshold families of the paper, with the
// arbitrary-power graph instantiated at α≈2 where the exponent 2/(α-2)
// blows up to 40 — the known-pathological regime for the bucketed build's
// search radii (see TestHugeRadiusTerminates) — plus the linear
// protocol-model threshold of the naive scheduling strategy, which is
// monotone but deliberately not sub-linear (Build's exactness must not
// depend on sub-linearity).
func fuzzFuncs() []Func {
	return []Func{
		Gamma(2),
		PowerLaw(2, 0.5),
		LogThreshold(2, 2.05),
		{Name: "protocol", Gamma: 2, H: func(x float64) float64 { return x }},
	}
}

// pathologicalSeed reproduces the α≈2 hang scenario as fuzz input: a hub of
// near-zero links next to far-away long links, maximizing both the length
// diversity and the ratio between search radius and class extent.
func pathologicalSeed() []byte {
	data := []byte{14} // 16 links
	add := func(sx, sy, dx, dy int8, e byte) {
		data = append(data, byte(sx), byte(sy), byte(dx), byte(dy), e)
	}
	for i := int8(0); i < 8; i++ {
		// Tiny links (scale 2^-8/8) clustered at the origin, collinear.
		add(i%3, 0, 1, 0, 0)
	}
	for i := int8(0); i < 8; i++ {
		// Long links (scale 2^8/8) fanning out from the far corner,
		// including duplicate senders.
		add(100, 100, 2+i, -3, 16)
	}
	return data
}

// FuzzBuildMatchesNaive asserts that the grid-bucketed parallel construction
// is edge-for-edge identical to the exact O(n²) oracle on adversarial small
// instances, across all three conflict-threshold families. buildBucketed
// returning nil is the sanctioned degenerate-input fallback (Build then uses
// the naive path), so nil is skipped, not failed.
func FuzzBuildMatchesNaive(f *testing.F) {
	f.Add(pathologicalSeed())
	// Duplicate and collinear points on one axis.
	f.Add([]byte{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8})
	// Mixed scales around a cluster.
	f.Add([]byte{8, 10, 10, 3, 4, 2, 10, 10, 3, 4, 14, 250, 250, 1, 1, 8, 0, 0, 100, 100, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		links := fuzzLinks(data)
		if len(links) < 2 {
			return
		}
		for _, fn := range fuzzFuncs() {
			naive := BuildNaive(links, fn)
			bucketed := buildBucketedBG(links, fn)
			if bucketed == nil {
				continue // degenerate input: Build falls back to naive
			}
			if naive.Edges() != bucketed.Edges() {
				t.Fatalf("%s: edge count %d (bucketed) != %d (naive) on %v",
					fn.Name, bucketed.Edges(), naive.Edges(), links)
			}
			for i := 0; i < naive.N(); i++ {
				if !slices.Equal(naive.Row(i), bucketed.Row(i)) {
					t.Fatalf("%s: adjacency of link %d differs: bucketed %v, naive %v on %v",
						fn.Name, i, bucketed.Row(i), naive.Row(i), links)
				}
			}
		}
	})
}

// TestFuzzSeedsDirectly runs the checked-in seeds through the fuzz body even
// when fuzzing is disabled, so the pathological case stays covered by plain
// `go test`.
func TestFuzzSeedsDirectly(t *testing.T) {
	seeds := [][]byte{
		pathologicalSeed(),
		{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8},
	}
	for _, data := range seeds {
		links := fuzzLinks(data)
		if len(links) < 2 {
			t.Fatal("seed decodes to fewer than 2 links")
		}
		for _, fn := range fuzzFuncs() {
			naive := BuildNaive(links, fn)
			bucketed := buildBucketedBG(links, fn)
			if bucketed == nil {
				t.Fatalf("%s: seed unexpectedly degenerate", fn.Name)
			}
			if naive.Edges() != bucketed.Edges() {
				t.Fatalf("%s: edge count %d != %d", fn.Name, bucketed.Edges(), naive.Edges())
			}
		}
	}
}
