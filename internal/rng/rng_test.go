package rng

import (
	"math"
	"testing"
)

// TestDeterministic: same seed, same stream — the reproducibility contract
// every experiment table rests on.
func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Fatal("different seeds produced the same first output")
	}
}

// TestSplitIndependence: a split generator must differ from the parent's
// subsequent stream and be itself deterministic.
func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	p, c := parent.Uint64(), child.Uint64()
	if p == c {
		t.Fatal("parent and child emitted the same value after Split")
	}
	parent2 := New(7)
	child2 := parent2.Split()
	if child2.Uint64() != c {
		t.Fatal("Split not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", v)
		}
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	r := New(4)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(7) never produced %d in 10k draws", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

// TestNormFloat64Moments: loose sanity on mean and variance of the polar
// method (10k samples; bounds are ~6σ wide).
func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	n := 10000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.06 {
		t.Fatalf("sample mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("sample variance %g too far from 1", variance)
	}
}
