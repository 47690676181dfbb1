package power

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

func testParams() sinr.Params { return sinr.Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0.5} }

// TestObliviousSchemes pins P_τ(i) = C·l^{τα} for the three named schemes
// in the noise-free model (C = 1).
func TestObliviousSchemes(t *testing.T) {
	p := testParams()
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 2}), // l = 2
		geom.NewLink(2, 3, geom.Point{}, geom.Point{X: 4}), // l = 4
	}
	cases := []struct {
		scheme Oblivious
		want   []float64
	}{
		{Uniform(), []float64{1, 1}},
		{Linear(), []float64{8, 64}},                            // l^3
		{Mean(), []float64{math.Pow(2, 1.5), math.Pow(4, 1.5)}}, // l^{1.5}
	}
	for _, c := range cases {
		got, err := c.scheme.Assign(links, p)
		if err != nil {
			t.Fatalf("%s: %v", c.scheme.Name(), err)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("%s: power[%d] = %g, want %g", c.scheme.Name(), i, got[i], c.want[i])
			}
		}
	}
	if _, err := (Oblivious{Tau: 2}).Assign(links, p); err == nil {
		t.Fatal("Assign accepted tau outside [0,1]")
	}
}

// TestNoiseFloorConstant: with noise, C scales so every link clears the
// interference-limited floor; Validate must agree.
func TestNoiseFloorConstant(t *testing.T) {
	p := sinr.Params{Alpha: 3, Beta: 2, Noise: 0.01, Epsilon: 0.5}
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{}, geom.Point{X: 10}),
	}
	for _, sch := range []Oblivious{Uniform(), Mean(), Linear()} {
		powers, err := sch.Assign(links, p)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if err := Validate(links, powers, p); err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
	}
}

// TestSolveFeasiblePair: the Jacobi fixed point must make the slot
// SINR-feasible, which the sinr package can confirm independently.
func TestSolveFeasiblePair(t *testing.T) {
	p := testParams()
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 2}, geom.Point{X: 3}),
	}
	// Uniform power fails this pair (margin 0.5) but global control works.
	powers, err := Solve(links, p, SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ok, err := p.Feasible(links, powers)
	if err != nil || !ok {
		t.Fatalf("Solve output infeasible: ok=%v err=%v powers=%v", ok, err, powers)
	}
}

// TestSolveInfeasible: coinciding links cannot be scheduled together under
// any power assignment.
func TestSolveInfeasible(t *testing.T) {
	p := testParams()
	a := geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1})
	b := geom.NewLink(2, 3, geom.Point{X: 0, Y: 0.001}, geom.Point{X: 1, Y: 0.001})
	_, err := Solve([]geom.Link{a, b}, p, SolveOptions{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Solve = %v, want ErrInfeasible", err)
	}
}

func TestSolveEmpty(t *testing.T) {
	powers, err := Solve(nil, testParams(), SolveOptions{})
	if err != nil || len(powers) != 0 {
		t.Fatalf("Solve(nil) = %v, %v; want empty, nil", powers, err)
	}
}

// TestSolveZeroLengthLink: a zero-length link has no valid power. Solve
// used to return power 0 for it with a nil error (Jacobi's 0/0 relative
// change never beat the running maximum), which only failed later in
// verification.
func TestSolveZeroLengthLink(t *testing.T) {
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 5}, geom.Point{X: 5}),
		geom.NewLink(2, 3, geom.Point{}, geom.Point{X: 1}),
	}
	powers, err := Solve(links, testParams(), SolveOptions{})
	if err == nil || err.Error() != "power: link 0 has non-positive length" {
		t.Fatalf("Solve = %v, %v; want the non-positive length error", powers, err)
	}
}

// TestSolveNonFiniteIterate: links of length ~1e110 overflow l^α, so the
// gain matrix is NaN. Solve used to return [NaN NaN] with a nil error.
func TestSolveNonFiniteIterate(t *testing.T) {
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 1e110}),
		geom.NewLink(2, 3, geom.Point{Y: 3e110}, geom.Point{X: 1e110, Y: 3e110}),
	}
	powers, err := Solve(links, testParams(), SolveOptions{})
	if err == nil || !strings.Contains(err.Error(), "not a positive finite power") {
		t.Fatalf("Solve = %v, %v; want a non-finite iterate error", powers, err)
	}
}

// randomSlot returns n links with senders uniform in a square of side
// spacing·√n, lengths uniform in [0.5, 1.5) and uniform orientations.
// Larger spacings give sparser, more often feasible slots.
func randomSlot(r *rand.Rand, n int, spacing float64) []geom.Link {
	side := spacing * math.Sqrt(float64(n))
	links := make([]geom.Link, n)
	for i := range links {
		s := geom.Point{X: side * r.Float64(), Y: side * r.Float64()}
		l, th := 0.5+r.Float64(), 2*math.Pi*r.Float64()
		links[i] = geom.NewLink(2*i, 2*i+1, s, geom.Point{X: s.X + l*math.Cos(th), Y: s.Y + l*math.Sin(th)})
	}
	return links
}

// naiveSolve is the plain reference TestSolveBitsMatchNaive holds Solve
// to, bit for bit: a math.Pow gain matrix, a one-row-at-a-time power
// iteration and a one-row-at-a-time Jacobi loop, without Solve's input and
// iterate checks.
func naiveSolve(links []geom.Link, p sinr.Params, opts SolveOptions) ([]float64, error) {
	opts.defaults()
	n := len(links)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		liA := math.Pow(links[i].Length(), p.Alpha)
		for j := range b[i] {
			if j != i {
				b[i][j] = p.Beta * liA / math.Pow(geom.SenderToReceiver(links[j], links[i]), p.Alpha)
			}
		}
	}
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	rho := 0.0
	for it := 0; it < 100; it++ {
		maxv := 0.0
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += b[i][j] * x[j]
			}
			y[i] = s
			if s > maxv {
				maxv = s
			}
		}
		if maxv == 0 {
			rho = 0
			break
		}
		rho = maxv
		inv := 1 / maxv
		for i := range y {
			x[i] = y[i]*inv + 1e-300
		}
	}
	if rho >= 1 {
		return nil, fmt.Errorf("%w (spectral radius %.6g)", ErrInfeasible, rho)
	}
	v := make([]float64, n)
	for i, l := range links {
		la := math.Pow(l.Length(), p.Alpha)
		v[i] = la
		if nf := (1 + p.Epsilon) * p.Beta * p.Noise * la; nf > v[i] {
			v[i] = nf
		}
	}
	cur := append([]float64(nil), v...)
	next := make([]float64, n)
	for it := 0; it < opts.MaxIters; it++ {
		var maxRel float64
		for i := 0; i < n; i++ {
			s := v[i]
			for j := 0; j < n; j++ {
				s += b[i][j] * cur[j]
			}
			next[i] = s
			if rel := math.Abs(s-cur[i]) / s; rel > maxRel {
				maxRel = rel
			}
		}
		cur, next = next, cur
		if maxRel < opts.Tol {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("power: Jacobi did not converge in %d iterations", opts.MaxIters)
}

// TestSolveBitsMatchNaive holds Solve to naiveSolve bit for bit — powers
// compared as Float64bits, failures by error text — on random slots of
// every size class mod 4 (the kernel's four-row blocks and its remainder
// rows), for α ∈ {2.1, 3, 4}, across densities that make some slots
// feasible, some infeasible, and, with a tiny iteration cap, some that
// stop before converging.
func TestSolveBitsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var solved, infeasible, stalled, diverged int
	for _, alpha := range []float64{2.1, 3, 4} {
		for _, noise := range []float64{0, 0.01} {
			p := sinr.Params{Alpha: alpha, Beta: 2, Noise: noise, Epsilon: 0.5}
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 61, 62, 63, 64, 129, 130, 131, 132} {
				for _, spacing := range []float64{2, 6, 20} {
					for _, opts := range []SolveOptions{{}, {MaxIters: 3}} {
						links := randomSlot(r, n, spacing)
						got, gotErr := Solve(links, p, opts)
						want, wantErr := naiveSolve(links, p, opts)
						if wantErr == nil && !allPositiveFinite(want) {
							// Without the iterate check: when 100 power
							// iterations underestimate ρ ≥ 1 (a period-2 slot),
							// Jacobi diverges to Inf, the NaN relative change
							// reads as converged, and Inf powers come back.
							diverged++
							if gotErr == nil || !strings.Contains(gotErr.Error(), "not a positive finite power") {
								t.Fatalf("α=%g n=%d spacing=%g: naive diverged to %v, Solve = %v, %v", alpha, n, spacing, want, got, gotErr)
							}
							continue
						}
						if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
							t.Fatalf("α=%g n=%d spacing=%g opts=%+v: err %v, naive %v", alpha, n, spacing, opts, gotErr, wantErr)
						}
						if errors.Is(gotErr, ErrInfeasible) {
							infeasible++
							continue
						}
						if gotErr != nil {
							stalled++
							continue
						}
						solved++
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("α=%g n=%d spacing=%g: power[%d] = %v, naive %v", alpha, n, spacing, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if solved == 0 || infeasible == 0 || stalled == 0 {
		t.Fatalf("%d solved, %d infeasible, %d not converged: the sweep must reach every outcome", solved, infeasible, stalled)
	}
	t.Logf("bit-identical: %d solved, %d infeasible, %d not converged; %d diverged", solved, infeasible, stalled, diverged)
}

func allPositiveFinite(xs []float64) bool {
	for _, x := range xs {
		if !(x > 0 && x <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// BenchmarkSolve times one global-power solve on a feasible slot of m
// links: m=128 and m=1213, the largest greedy slot of the
// powerctl-annulus-8k benchmark workload. Senders sit on a jittered grid
// so the slot is feasible at every m and Jacobi runs to convergence.
func BenchmarkSolve(b *testing.B) {
	for _, m := range []int{128, 1213} {
		r := rand.New(rand.NewSource(int64(m)))
		side := int(math.Ceil(math.Sqrt(float64(m))))
		links := make([]geom.Link, m)
		for i := range links {
			s := geom.Point{X: 4 * (float64(i%side) + r.Float64()/2), Y: 4 * (float64(i/side) + r.Float64()/2)}
			l, th := 0.5+r.Float64()/2, 2*math.Pi*r.Float64()
			links[i] = geom.NewLink(2*i, 2*i+1, s, geom.Point{X: s.X + l*math.Cos(th), Y: s.Y + l*math.Sin(th)})
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(links, testParams(), SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
