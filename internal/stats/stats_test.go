package stats

import (
	"math"
	"testing"
)

// TestLogStarReferences pins the documented reference values.
func TestLogStarReferences(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0},
		{2, 1}, {4, 2}, {16, 3}, {65536, 4},
		{3, 2}, {5, 3},
	}
	for _, c := range cases {
		if got := LogStar(c.x); got != c.want {
			t.Errorf("LogStar(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestLogStarFromLog2 checks the large-value form, including Δ = 2^65536
// which overflows float64 as a plain value.
func TestLogStarFromLog2(t *testing.T) {
	if got := LogStarFromLog2(65536); got != 5 {
		t.Errorf("LogStarFromLog2(65536) = %d, want 5 (log* of 2^65536)", got)
	}
	if got := LogStarFromLog2(0); got != 0 {
		t.Errorf("LogStarFromLog2(0) = %d, want 0", got)
	}
	if got := LogStarFromLog2(-3); got != 0 {
		t.Errorf("LogStarFromLog2(-3) = %d, want 0", got)
	}
	// Consistency with the direct form where both are representable.
	for _, y := range []float64{1, 2, 4, 10, 100} {
		if got, want := LogStarFromLog2(y), LogStar(math.Pow(2, y)); got != want {
			t.Errorf("LogStarFromLog2(%g) = %d, LogStar(2^%g) = %d", y, got, y, want)
		}
	}
}

// TestPercentileEdges covers the edge cases: empty input, clamped p,
// single element, and interpolation.
func TestPercentileEdges(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile(single, 99) = %g, want 7", got)
	}
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := Percentile(xs, -10); got != 1 {
		t.Errorf("Percentile(p<0) = %g, want min 1", got)
	}
	if got := Percentile(xs, 200); got != 4 {
		t.Errorf("Percentile(p>100) = %g, want max 4", got)
	}
	if got, want := Percentile(xs, 50), 2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Percentile(50) = %g, want %g", got, want)
	}
	if got, want := Percentile(xs, 25), 1.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("Percentile(25) = %g, want %g", got, want)
	}
	if got, want := Median(xs), 2.5; got != want {
		t.Errorf("Median = %g, want %g", got, want)
	}
	// Percentile must not mutate its input.
	if xs[0] != 4 || xs[3] != 2 {
		t.Errorf("Percentile sorted the caller's slice: %v", xs)
	}
}

func TestLogLog(t *testing.T) {
	if got := LogLog(2); got != 0 {
		t.Errorf("LogLog(2) = %g, want 0", got)
	}
	if got := LogLog(0); got != 0 {
		t.Errorf("LogLog(0) = %g, want 0", got)
	}
	if got, want := LogLog(16), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("LogLog(16) = %g, want %g", got, want)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/singleton descriptive stats not zero")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slice not ±Inf")
	}
}

// TestLogStarNonFinite is the regression test for the former non-termination:
// LogStar(+Inf) looped forever because math.Log2(+Inf) == +Inf. Non-finite
// input must return the sentinel immediately, in both forms.
func TestLogStarNonFinite(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	if got := LogStar(inf); got != LogStarUndefined {
		t.Errorf("LogStar(+Inf) = %d, want %d", got, LogStarUndefined)
	}
	if got := LogStar(nan); got != LogStarUndefined {
		t.Errorf("LogStar(NaN) = %d, want %d", got, LogStarUndefined)
	}
	if got := LogStar(math.Inf(-1)); got != 0 {
		t.Errorf("LogStar(-Inf) = %d, want 0 (below the x<=1 convention)", got)
	}
	if got := LogStarFromLog2(inf); got != LogStarUndefined {
		t.Errorf("LogStarFromLog2(+Inf) = %d, want %d", got, LogStarUndefined)
	}
	if got := LogStarFromLog2(nan); got != LogStarUndefined {
		t.Errorf("LogStarFromLog2(NaN) = %d, want %d", got, LogStarUndefined)
	}
	// The overflow-range path the experiment layer relies on: a diversity
	// whose float64 value would be +Inf is finite in log2 form.
	if got := LogStarFromLog2(1100); got != 1+LogStar(1100) {
		t.Errorf("LogStarFromLog2(1100) = %d, want %d", got, 1+LogStar(1100))
	}
	if got := LogStar(math.MaxFloat64); got != 5 {
		t.Errorf("LogStar(MaxFloat64) = %d, want 5", got)
	}
}
