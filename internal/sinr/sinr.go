// Package sinr implements the physical (SINR) model of interference from
// Sec. 2 of the paper.
//
// A transmission on link i, concurrent with a set S of links, succeeds under
// power assignment P iff
//
//	S_i ≥ β·(Σ_{j∈S\{i}} I_ji + N),           (1)
//
// where the received signal is S_i = P(i)/l_i^α, the interference of j on i
// is I_ji = P(j)/d_ji^α with d_ji = d(s_j, r_i), N ≥ 0 is ambient noise, and
// β > 0 is the SINR threshold. α > 2 is the path-loss exponent.
//
// The package provides
//   - per-set feasibility checks for a concrete power assignment,
//   - the paper's additive operator I(j,i) = min{1, l_j^α/d(i,j)^α} used by
//     Lemma 1 and Theorem 2, and
//   - exact feasibility under *arbitrary* power control via the spectral
//     radius of the normalized gain matrix (used as ground truth for
//     "feasible" in the sense of Sec. 2).
package sinr

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
)

// Params holds the physical-model constants.
type Params struct {
	// Alpha is the path-loss exponent; the analysis requires Alpha > 2.
	Alpha float64
	// Beta is the SINR decoding threshold β > 0.
	Beta float64
	// Noise is the ambient noise N ≥ 0. Zero models the interference-limited
	// regime directly.
	Noise float64
	// Epsilon is the interference-limited headroom: power assignments
	// guarantee P(i) ≥ (1+Epsilon)·β·N·l_i^α. Ignored when Noise == 0.
	Epsilon float64
}

// DefaultParams are the constants used throughout the experiments:
// α=3 (a standard outdoor exponent, >2 as required), β=2, no noise,
// 50% headroom.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0.5}
}

// Validate checks the model constraints the analysis relies on.
func (p Params) Validate() error {
	if !(p.Alpha > 2) {
		return fmt.Errorf("sinr: alpha must exceed 2, got %g", p.Alpha)
	}
	if !(p.Beta > 0) {
		return fmt.Errorf("sinr: beta must be positive, got %g", p.Beta)
	}
	if p.Noise < 0 {
		return fmt.Errorf("sinr: noise must be non-negative, got %g", p.Noise)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("sinr: epsilon must be non-negative, got %g", p.Epsilon)
	}
	return nil
}

// Signal returns S_i = power/l^α for a link of length l.
func (p Params) Signal(power, l float64) float64 {
	return power / math.Pow(l, p.Alpha)
}

// InterferenceAt returns I_ji = power_j / d_ji^α, the interference a sender
// transmitting with power_j at distance d_ji from a receiver imposes on it.
func (p Params) InterferenceAt(powerJ, dJI float64) float64 {
	return powerJ / math.Pow(dJI, p.Alpha)
}

// MinPower returns β·N·l^α, the minimum power to decode over a link of
// length l in the absence of interference, and zero when Noise is zero.
func (p Params) MinPower(l float64) float64 {
	return p.Beta * p.Noise * math.Pow(l, p.Alpha)
}

// Feasible reports whether every link in S satisfies the SINR condition (1)
// when all of S transmits simultaneously under the given powers
// (power[k] is the transmit power of links[k]). It returns an error if the
// slices disagree in length or a power is non-positive.
func (p Params) Feasible(links []geom.Link, power []float64) (bool, error) {
	margin, err := p.Margin(links, power)
	if err != nil {
		return false, err
	}
	return margin >= 1, nil
}

// Margin returns the worst-case SINR margin of the set: the minimum over
// links i of SINR_i/β. The set is feasible iff the margin is ≥ 1.
// A set with a single link and zero noise has margin +Inf.
func (p Params) Margin(links []geom.Link, power []float64) (float64, error) {
	if len(links) != len(power) {
		return 0, fmt.Errorf("sinr: %d links but %d powers", len(links), len(power))
	}
	worst := math.Inf(1)
	for i, li := range links {
		if power[i] <= 0 {
			return 0, fmt.Errorf("sinr: non-positive power %g on link %d", power[i], i)
		}
		sig := p.Signal(power[i], li.Length())
		intf := p.Noise
		for j, lj := range links {
			if j == i {
				continue
			}
			intf += p.InterferenceAt(power[j], geom.SenderToReceiver(lj, li))
		}
		var m float64
		if intf == 0 {
			m = math.Inf(1)
		} else {
			m = sig / (p.Beta * intf)
		}
		if m < worst {
			worst = m
		}
	}
	return worst, nil
}

// AddOp returns the paper's additive operator
// I(j,i) = min{1, l_j^α / d(i,j)^α}, where d(i,j) is the minimum endpoint
// distance between the links. Coinciding links (d = 0) give 1.
func (p Params) AddOp(j, i geom.Link) float64 {
	d := geom.LinkDist(j, i)
	if d <= 0 {
		return 1
	}
	v := math.Pow(j.Length()/d, p.Alpha)
	if v > 1 {
		return 1
	}
	return v
}

// GainMatrix returns the normalized gain matrix B of the set, where
// B[i][j] = β·l_i^α/d_ji^α for j ≠ i and 0 on the diagonal. The SINR
// constraints with zero noise read componentwise P ≥ B·P; the set is
// feasible under some positive power assignment iff the spectral radius
// ρ(B) < 1 (Perron–Frobenius).
//
// Each row is its own allocation: greedy slots reach ~1200 links, and one
// flat n² backing would be a multi-megabyte large object per solve, which
// measurably raised peak RSS.
func (p Params) GainMatrix(links []geom.Link) [][]float64 {
	n := len(links)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		liA := p.powDist(links[i].Length())
		for j := range b[i] {
			if j == i {
				continue
			}
			d := geom.SenderToReceiver(links[j], links[i])
			b[i][j] = p.Beta * liA / p.powDist(d)
		}
	}
	return b
}

// powDist returns d^α, bit-identical to math.Pow(d, α). For the default
// α=3 it computes d·(d·d) whenever that is at least the smallest normal
// float: math.Pow with an integer exponent of 3 squares the mantissa,
// rounds, multiplies by the mantissa and rounds again, scaling by the
// exponent exactly, which is the same two roundings. An overflow is +Inf
// both ways; subnormal, zero and NaN results take math.Pow.
func (p Params) powDist(d float64) float64 {
	if p.Alpha == 3 {
		if r := d * (d * d); r >= minNormal {
			return r
		}
	}
	return math.Pow(d, p.Alpha)
}

// minNormal is the smallest positive normal float64, 2^-1022.
const minNormal = 0x1p-1022

// SpectralRadius estimates the spectral radius of a non-negative square
// matrix by power iteration with max-norm normalization. For the
// irreducible-or-nearly-so gain matrices arising from link sets this
// converges quickly; iters=100 gives ~1e-10 accuracy on the experiment
// instances. A 0×0 or 1×1 all-zero matrix has radius 0; a matrix whose
// row sums reach NaN has radius NaN.
func SpectralRadius(b [][]float64, iters int) float64 {
	n := len(b)
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	radius := 0.0
	for it := 0; it < iters; it++ {
		MatVec(y, nil, b, x)
		maxv := 0.0
		for _, s := range y {
			// A NaN row (the matrix left the float range) makes the
			// radius NaN rather than being skipped by the comparison.
			if s > maxv || math.IsNaN(s) {
				maxv = s
			}
		}
		if maxv == 0 || math.IsNaN(maxv) {
			return maxv
		}
		radius = maxv
		inv := 1 / maxv
		for i := range y {
			// Keep a tiny floor so the iterate stays positive and can pick
			// up mass from any reducible block.
			x[i] = y[i]*inv + 1e-300
		}
	}
	return radius
}

// MatVec sets y[i] = seed[i] + Σ_j b[i][j]·x[j] for the square matrix b,
// with a nil seed meaning 0. It is the one matrix-vector kernel behind
// SpectralRadius and the global-power Jacobi solve. Each row's sum starts
// at its seed and adds its terms in j order, exactly as a plain per-row
// loop does, so the result is bit-identical to that loop; running four rows
// per pass gives the CPU four independent add chains instead of one serial
// one. One accumulator per row and no math.FMA: either would change the
// bits. y may alias seed but not x.
func MatVec(y, seed []float64, b [][]float64, x []float64) {
	n := len(x)
	y = y[:len(b)]
	i := 0
	for ; i+4 <= len(b); i += 4 {
		r0, r1, r2, r3 := b[i][:n], b[i+1][:n], b[i+2][:n], b[i+3][:n]
		var s0, s1, s2, s3 float64
		if seed != nil {
			s0, s1, s2, s3 = seed[i], seed[i+1], seed[i+2], seed[i+3]
		}
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < len(b); i++ {
		row := b[i][:n]
		var s float64
		if seed != nil {
			s = seed[i]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

// FeasibleSomePower reports whether the set is feasible under *some* power
// assignment with zero noise: ρ(B) < 1 for the normalized gain matrix. The
// margin returned is 1/ρ(B) (∞ when ρ=0); margins > 1 mean feasible.
func (p Params) FeasibleSomePower(links []geom.Link) (bool, float64) {
	if len(links) <= 1 {
		return true, math.Inf(1)
	}
	r := SpectralRadius(p.GainMatrix(links), 100)
	if r == 0 {
		return true, math.Inf(1)
	}
	return r < 1, 1 / r
}
