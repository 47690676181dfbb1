package lru

import (
	"reflect"
	"testing"
)

func wantKeys(t *testing.T, c *Cache[string, int], want ...string) {
	t.Helper()
	if got := c.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v (newest first)", got, want)
	}
}

// TestEntryBudgetEvictsLRU: past the entry budget the least-recently-used
// entry goes, and a Get refreshes recency.
func TestEntryBudgetEvictsLRU(t *testing.T) {
	c := New[string, int](2, 0)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %t", v, ok)
	}
	c.Add("c", 3, 1) // b is now least recent
	wantKeys(t, c, "c", "a")
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestByteBudgetEvictsLRU: the byte budget evicts oldest-first until the
// summed sizes fit, and replacing an entry re-weighs it.
func TestByteBudgetEvictsLRU(t *testing.T) {
	c := New[string, int](0, 10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	c.Add("c", 3, 4) // 12 > 10: a goes
	wantKeys(t, c, "c", "b")
	if c.Bytes() != 8 {
		t.Fatalf("bytes = %d, want 8", c.Bytes())
	}
	c.Add("b", 20, 7) // re-weighed to 11 > 10: c goes, b is newest
	wantKeys(t, c, "b")
	if v, _ := c.Peek("b"); v != 20 || c.Bytes() != 7 {
		t.Fatalf("replaced b = %d, bytes %d; want 20, 7", v, c.Bytes())
	}
}

// TestNewestKept: an entry larger than the whole byte budget still stays
// until something newer arrives.
func TestNewestKept(t *testing.T) {
	c := New[string, int](0, 5)
	c.Add("a", 1, 3)
	c.Add("big", 2, 100)
	wantKeys(t, c, "big")
	c.Add("b", 3, 1)
	wantKeys(t, c, "b")
}

// TestPinnedSurvive: eviction skips pinned entries, taking the oldest
// unpinned one instead, and stays over budget when only pinned entries
// (and the newest) remain.
func TestPinnedSurvive(t *testing.T) {
	c := New[string, int](2, 0)
	c.Pinned = func(v int) bool { return v < 0 }
	c.Add("p", -1, 1)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1) // over by one: p is pinned, so a goes
	wantKeys(t, c, "b", "p")
	c.Add("q", -2, 1) // over by one: b goes
	wantKeys(t, c, "q", "p")
	c.Add("r", -3, 1) // every older entry pinned: stays over budget
	wantKeys(t, c, "r", "q", "p")
	if _, _, ev := c.Stats(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
}

// TestRemoveFunc drops exactly the matching entries, uncounted as
// evictions, and keeps the byte total in step.
func TestRemoveFunc(t *testing.T) {
	c := New[string, int](0, 0)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Add(k, i, int64(i+1))
	}
	if n := c.RemoveFunc(func(_ string, v int) bool { return v%2 == 0 }); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	wantKeys(t, c, "d", "b")
	if c.Bytes() != 2+4 || c.Len() != 2 {
		t.Fatalf("bytes %d len %d, want 6 and 2", c.Bytes(), c.Len())
	}
	if _, _, ev := c.Stats(); ev != 0 {
		t.Fatalf("removals counted as %d evictions", ev)
	}
}

// TestCounters: Get counts hits and misses; Peek and Add count nothing and
// Peek leaves recency alone.
func TestCounters(t *testing.T) {
	c := New[string, int](0, 0)
	c.Get("x")
	c.Add("x", 1, 1)
	c.Add("y", 2, 1)
	c.Get("x")
	c.Get("x")
	c.Peek("y")
	c.Peek("z")
	if h, m, ev := c.Stats(); h != 2 || m != 1 || ev != 0 {
		t.Fatalf("stats %d/%d/%d, want 2/1/0", h, m, ev)
	}
	wantKeys(t, c, "x", "y")
	c.Peek("y")
	wantKeys(t, c, "x", "y")
}
