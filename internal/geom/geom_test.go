package geom

import (
	"math"
	"testing"
)

func TestLinkDistances(t *testing.T) {
	// i: (0,0)→(2,0), j: (5,0)→(5,3).
	i := NewLink(0, 1, Point{X: 0}, Point{X: 2})
	j := NewLink(2, 3, Point{X: 5}, Point{X: 5, Y: 3})
	if got := i.Length(); got != 2 {
		t.Fatalf("Length = %g, want 2", got)
	}
	// min endpoint distance: r_i=(2,0) to s_j=(5,0) → 3.
	if got := LinkDist(i, j); got != 3 {
		t.Fatalf("LinkDist = %g, want 3", got)
	}
	if LinkDist(i, j) != LinkDist(j, i) {
		t.Fatal("LinkDist not symmetric")
	}
	// sender-to-receiver: s_i=(0,0) to r_j=(5,3) → sqrt(34).
	if got, want := SenderToReceiver(i, j), math.Sqrt(34); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SenderToReceiver = %g, want %g", got, want)
	}
	lmin, lmax := MinMaxLen(i, j)
	if lmin != 2 || lmax != 3 {
		t.Fatalf("MinMaxLen = (%g, %g), want (2, 3)", lmin, lmax)
	}
}

func TestLinkDiversity(t *testing.T) {
	links := []Link{
		NewLink(0, 1, Point{}, Point{X: 1}),
		NewLink(2, 3, Point{}, Point{X: 8}),
	}
	d, err := LinkDiversity(links)
	if err != nil || d != 8 {
		t.Fatalf("LinkDiversity = %g, %v; want 8, nil", d, err)
	}
	if d, err := LinkDiversity(nil); err != nil || d != 1 {
		t.Fatalf("LinkDiversity(nil) = %g, %v; want 1, nil", d, err)
	}
	bad := []Link{NewLink(0, 1, Point{X: 1}, Point{X: 1})}
	if _, err := LinkDiversity(bad); err == nil {
		t.Fatal("LinkDiversity accepted a zero-length link")
	}
}

func TestPointDiversityAndClosestPair(t *testing.T) {
	pts := []Point{{X: 0}, {X: 1}, {X: 9}}
	d, err := PointDiversity(pts)
	if err != nil || d != 9 {
		t.Fatalf("PointDiversity = %g, %v; want 9, nil", d, err)
	}
	bi, bj, dist := ClosestPair(pts)
	if bi != 0 || bj != 1 || dist != 1 {
		t.Fatalf("ClosestPair = (%d, %d, %g), want (0, 1, 1)", bi, bj, dist)
	}
	if _, err := PointDiversity([]Point{{X: 1}, {X: 1}}); err == nil {
		t.Fatal("PointDiversity accepted duplicate points")
	}
}

func TestBoundingBoxTransforms(t *testing.T) {
	pts := []Point{{X: 1, Y: 2}, {X: -3, Y: 5}}
	lo, hi := BoundingBox(pts)
	if lo != (Point{X: -3, Y: 2}) || hi != (Point{X: 1, Y: 5}) {
		t.Fatalf("BoundingBox = %v, %v", lo, hi)
	}
	if !OnLine([]Point{{X: 1}, {X: 2}}) || OnLine(pts) {
		t.Fatal("OnLine misclassifies")
	}
}

// TestLinkLog2DiversityOverflow: the log-space form must stay finite when
// the ratio Δ(L) itself overflows float64.
func TestLinkLog2DiversityOverflow(t *testing.T) {
	links := []Link{
		NewLink(0, 1, Point{0, 0}, Point{1e-308, 0}),
		NewLink(2, 3, Point{0, 0}, Point{1e30, 0}),
	}
	got, err := LinkLog2Diversity(links)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log2(1e30) - math.Log2(1e-308)
	if math.IsInf(got, 0) || math.Abs(got-want) > 1e-9 {
		t.Fatalf("LinkLog2Diversity = %g, want %g (finite)", got, want)
	}
	if div, _ := LinkDiversity(links); !math.IsInf(div, 1) {
		t.Fatalf("test premise broken: ratio %g should overflow to +Inf", div)
	}
	// Consistency with the direct form in the normal range.
	norm := []Link{
		NewLink(0, 1, Point{0, 0}, Point{2, 0}),
		NewLink(2, 3, Point{0, 0}, Point{64, 0}),
	}
	got, err = LinkLog2Diversity(norm)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("LinkLog2Diversity(2,64) = %g, want 5", got)
	}
	if v, err := LinkLog2Diversity(nil); err != nil || v != 0 {
		t.Fatalf("LinkLog2Diversity(nil) = %g, %v; want 0, nil", v, err)
	}
	if _, err := LinkLog2Diversity([]Link{NewLink(0, 1, Point{}, Point{})}); err == nil {
		t.Fatal("zero-length link did not error")
	}
}
