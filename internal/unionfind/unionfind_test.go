package unionfind

import "testing"

func TestUnionFind(t *testing.T) {
	d := New(6)
	if d.Len() != 6 || d.Connected(0, 1) {
		t.Fatalf("fresh DSU: len=%d, singletons joined", d.Len())
	}
	if !d.Union(0, 1) || !d.Union(1, 2) {
		t.Fatal("Union of disjoint sets returned false")
	}
	if d.Union(0, 2) {
		t.Fatal("Union of joined sets returned true")
	}
	if !d.Connected(0, 2) || d.Connected(0, 3) {
		t.Fatal("Connected wrong")
	}
	if d.Find(0) != d.Find(2) {
		t.Fatal("Find roots differ within a set")
	}
	// Merge everything and confirm a single set remains.
	for i := 0; i < 5; i++ {
		d.Union(i, i+1)
	}
	for i := 1; i < 6; i++ {
		if d.Find(i) != d.Find(0) {
			t.Fatalf("element %d not in the single set after a full merge", i)
		}
	}
}
