package sinr

import (
	"math"
	"math/rand"
	"testing"

	"aggrate/internal/geom"
)

// twoLinkParams are the hand-computed fixture constants: α=3, β=2, no
// noise. All expected values below are derived by hand from Sec. 2's
// definitions.
func twoLinkParams() Params { return Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0} }

// TestMarginTwoLinksFeasible: links A = (0,0)→(1,0) and B = (10,0)→(11,0),
// unit powers.
//
//	S_A = 1/1³ = 1;  I_{BA} = 1/d(s_B, r_A)³ = 1/9³ = 1/729
//	SINR_A = 729, margin_A = 729/β = 364.5
//	S_B = 1;  I_{AB} = 1/d(s_A, r_B)³ = 1/11³ = 1/1331
//	SINR_B = 1331, margin_B = 665.5  →  worst margin 364.5
func TestMarginTwoLinksFeasible(t *testing.T) {
	p := twoLinkParams()
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 11}),
	}
	m, err := p.Margin(links, []float64{1, 1})
	if err != nil {
		t.Fatalf("Margin: %v", err)
	}
	if want := 364.5; math.Abs(m-want) > 1e-9 {
		t.Fatalf("margin = %.12g, want %g", m, want)
	}
	ok, err := p.Feasible(links, []float64{1, 1})
	if err != nil || !ok {
		t.Fatalf("Feasible = %v, %v; want true, nil", ok, err)
	}
}

// TestMarginTwoLinksInfeasible: move B to (2,0)→(3,0).
//
//	I_{BA} = 1/d(s_B, r_A)³ = 1/1³ = 1 → SINR_A = 1, margin_A = 0.5
//	I_{AB} = 1/d(s_A, r_B)³ = 1/27  → SINR_B = 27, margin_B = 13.5
func TestMarginTwoLinksInfeasible(t *testing.T) {
	p := twoLinkParams()
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 2}, geom.Point{X: 3}),
	}
	m, err := p.Margin(links, []float64{1, 1})
	if err != nil {
		t.Fatalf("Margin: %v", err)
	}
	if want := 0.5; math.Abs(m-want) > 1e-12 {
		t.Fatalf("margin = %.12g, want %g", m, want)
	}
	if ok, _ := p.Feasible(links, []float64{1, 1}); ok {
		t.Fatal("Feasible = true for an infeasible pair")
	}
	// The pair is still feasible under *some* power assignment: boosting A
	// relative to B trades A's deficit against B's huge slack.
	if ok, margin := p.FeasibleSomePower(links); !ok || margin <= 1 {
		t.Fatalf("FeasibleSomePower = %v, %g; want true with margin > 1", ok, margin)
	}
}

// TestMarginEdgeCases covers the degenerate inputs Margin must reject or
// special-case.
func TestMarginEdgeCases(t *testing.T) {
	p := twoLinkParams()
	single := []geom.Link{geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 5})}
	m, err := p.Margin(single, []float64{1})
	if err != nil || !math.IsInf(m, 1) {
		t.Fatalf("single link, zero noise: margin = %v, %v; want +Inf, nil", m, err)
	}
	if _, err := p.Margin(single, []float64{1, 2}); err == nil {
		t.Fatal("Margin accepted mismatched slice lengths")
	}
	if _, err := p.Margin(single, []float64{0}); err == nil {
		t.Fatal("Margin accepted non-positive power")
	}
}

// TestAddOp pins the additive operator I(j,i) = min{1, (l_j/d(i,j))^α}.
func TestAddOp(t *testing.T) {
	p := twoLinkParams()
	a := geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}) // length 1
	b := geom.NewLink(2, 3, geom.Point{X: 3}, geom.Point{X: 4}) // d(a,b)=2
	if got, want := p.AddOp(a, b), 0.125; math.Abs(got-want) > 1e-12 {
		t.Fatalf("AddOp = %.12g, want %g (= (1/2)³)", got, want)
	}
	c := geom.NewLink(4, 5, geom.Point{X: 1.5}, geom.Point{X: 9}) // length 7.5, d(a,c)=0.5
	if got := p.AddOp(c, a); got != 1 {
		t.Fatalf("AddOp clamp = %.12g, want 1", got)
	}
	if got := p.AddOp(a, a); got != 1 {
		t.Fatalf("AddOp of coinciding links = %g, want 1", got)
	}
}

// TestNoiseFloor: with noise, a single link needs P ≥ β·N·l^α; MinPower and
// Margin must agree on the boundary.
func TestNoiseFloor(t *testing.T) {
	p := Params{Alpha: 3, Beta: 2, Noise: 0.001, Epsilon: 0}
	l := geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 2})
	floor := p.MinPower(2) // 2·0.001·8 = 0.016
	if math.Abs(floor-0.016) > 1e-15 {
		t.Fatalf("MinPower = %g, want 0.016", floor)
	}
	m, err := p.Margin([]geom.Link{l}, []float64{floor})
	if err != nil || math.Abs(m-1) > 1e-12 {
		t.Fatalf("margin at the noise floor = %v, %v; want exactly 1", m, err)
	}
}

// TestSpectralRadiusKnown checks the power iteration on a matrix with a
// known radius.
func TestSpectralRadiusKnown(t *testing.T) {
	// [[1, 2], [0.5, 1]] has eigenvalues 1 ± 1 → radius 2, with a spectral
	// gap so the power iteration converges.
	b := [][]float64{{1, 2}, {0.5, 1}}
	if r := SpectralRadius(b, 200); math.Abs(r-2) > 1e-8 {
		t.Fatalf("SpectralRadius = %.12g, want 2", r)
	}
	if r := SpectralRadius(nil, 10); r != 0 {
		t.Fatalf("SpectralRadius(nil) = %g, want 0", r)
	}
	// A NaN entry (the gain matrix left the float range) must not read as
	// radius 0, which would pass any feasibility test.
	if r := SpectralRadius([][]float64{{0, math.NaN()}, {1, 0}}, 10); !math.IsNaN(r) {
		t.Fatalf("SpectralRadius with a NaN row = %g, want NaN", r)
	}
}

// TestPowDistMatchesPow checks the α=3 closed form d·(d·d) against
// math.Pow bit for bit: log-uniform d over [1e-100, 1e100], uniform d over
// [0, 2e6] (the deployments' distance range), and the boundaries where the
// closed form hands back to math.Pow — subnormal results, overflow, 0 and
// +Inf — stepping a few ulps either side of each cut.
func TestPowDistMatchesPow(t *testing.T) {
	p := Params{Alpha: 3}
	check := func(d float64) {
		t.Helper()
		if got, want := p.powDist(d), math.Pow(d, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("powDist(%v) = %v, want math.Pow = %v", d, got, want)
		}
	}
	r := rand.New(rand.NewSource(3))
	for k := 0; k < 500_000; k++ {
		check(math.Pow(10, -100+200*r.Float64()))
		check(2e6 * r.Float64())
	}
	for _, d := range []float64{0, math.Inf(1), 1, 2, 1e-110, 1e-104, 1e103, 1e110, math.MaxFloat64, 5e-324} {
		check(d)
	}
	// Cube roots of the smallest normal and the largest finite float.
	for _, edge := range []float64{math.Cbrt(minNormal), math.Cbrt(math.MaxFloat64)} {
		lo, hi := edge, edge
		for k := 0; k < 1000; k++ {
			check(lo)
			check(hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
	}
	if !math.IsNaN(p.powDist(math.NaN())) {
		t.Fatal("powDist(NaN) is not NaN")
	}
	// Other exponents go straight to math.Pow.
	for _, a := range []float64{2.1, 4} {
		q := Params{Alpha: a}
		if got, want := q.powDist(7.5), math.Pow(7.5, a); got != want {
			t.Fatalf("alpha %g: powDist = %v, want %v", a, got, want)
		}
	}
}
