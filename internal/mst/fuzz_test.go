package mst

import (
	"context"
	"math"
	"testing"

	"aggrate/internal/geom"
)

// fuzzPoints decodes bytes into 256–600 points, enough to take the k-d tree
// path rather than the small-n Prim path. The first two bytes pick n; the
// rest is read four bytes per point, cycling when it runs out. The first
// byte of each group picks the point's kind: a duplicate of an earlier
// point, a point on the segment between two earlier ones, a point sharing an
// earlier point's x (axis-parallel collinear runs and tied distances), or a
// fresh point at radius 10^-6..10^6 — twelve decades of length diversity.
func fuzzPoints(data []byte) []geom.Point {
	if len(data) < 3 {
		return nil
	}
	n := emstCutoff + (int(data[0])|int(data[1])<<8)%(600-emstCutoff+1)
	body := data[2:]
	at := func(i, k int) byte { return body[(4*i+k)%len(body)] }
	pts := make([]geom.Point, 0, n)
	for i := 0; len(pts) < n; i++ {
		m := len(pts)
		switch kind := at(i, 0) % 8; {
		case kind == 0 && m > 0:
			pts = append(pts, pts[int(at(i, 1))%m])
			continue
		case kind == 1 && m > 1:
			a, b := pts[int(at(i, 1))%m], pts[int(at(i, 2))%m]
			t := float64(at(i, 3)) / 255 // interpolate: the extent never grows
			pts = append(pts, a.Add(b.Sub(a).Scale(t)))
			continue
		case kind == 2 && m > 0:
			pts = append(pts, geom.Point{X: pts[int(at(i, 1))%m].X, Y: float64(at(i, 2)) - 128})
			continue
		}
		// The index term keeps a cycled short input from repeating exactly.
		rad := math.Pow(10, float64(at(i, 1))/255*12-6)
		th := (float64(at(i, 2)) + float64(at(i, 3))/256 + float64(i)*0.618034) * 2 * math.Pi / 256
		pts = append(pts, geom.Point{X: rad * math.Cos(th), Y: rad * math.Sin(th)})
	}
	return pts
}

// FuzzEMSTMatchesPrim: whatever the geometry — duplicates, collinear runs,
// twelve decades of scale — the EMST edges must form a spanning tree whose
// total weight equals the dense Prim oracle's (edge sets may differ only
// under ties, as in TestEMSTTieHeavy). The committed seeds cover an
// annulus-wide-like spread, collinear runs, and all-coincident points.
func FuzzEMSTMatchesPrim(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		if pts == nil {
			return
		}
		got, err := EMSTCtx(context.Background(), pts)
		if err != nil {
			t.Fatalf("EMSTCtx: %v", err)
		}
		if _, err := Build(pts, got, 0); err != nil {
			t.Fatalf("EMST edges do not form a spanning tree of %d points: %v", len(pts), err)
		}
		gotW, wantW := TotalWeight(got), TotalWeight(Prim(pts))
		if math.Abs(gotW-wantW) > 1e-9*wantW {
			t.Fatalf("EMST weight %.17g != Prim weight %.17g on %d points", gotW, wantW, len(pts))
		}
	})
}
