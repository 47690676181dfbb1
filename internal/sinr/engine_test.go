package sinr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggrate/internal/geom"
)

// randLinks returns n links with senders and receivers uniform in a
// side×side square (deterministic in seed).
func randLinks(n int, side float64, seed int64) []geom.Link {
	r := rand.New(rand.NewSource(seed))
	links := make([]geom.Link, n)
	for i := range links {
		s := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		// Short links: receiver near the sender, so lengths (and margins)
		// spread over a realistic range.
		d := geom.Point{X: (r.Float64() - 0.5) * side / 20, Y: (r.Float64() - 0.5) * side / 20}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	return links
}

// clusterLinks returns n links bunched into a few tight clusters, the
// adversarial shape for grid aggregation (most mass in few cells).
func clusterLinks(n int, seed int64) []geom.Link {
	r := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 50}, {X: 400, Y: 900}}
	links := make([]geom.Link, n)
	for i := range links {
		c := centers[r.Intn(len(centers))]
		s := c.Add(geom.Point{X: r.NormFloat64() * 5, Y: r.NormFloat64() * 5})
		d := geom.Point{X: r.Float64() + 0.1, Y: r.Float64() + 0.1}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	return links
}

func fullSlot(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func randPowers(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5 + r.Float64()*10
	}
	return p
}

// checkParity compares the engine against Params.Margin on one slot:
// identical feasibility verdict and margin within 1e-9 relative.
func checkParity(t *testing.T, p Params, links []geom.Link, idx []int, powers []float64) {
	t.Helper()
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats
	got, err := eng.MarginSlot(idx, powers, sc, &st)
	if err != nil {
		t.Fatalf("MarginSlot: %v", err)
	}
	slotLinks := make([]geom.Link, len(idx))
	for k, i := range idx {
		slotLinks[k] = links[i]
	}
	want, err := p.Margin(slotLinks, powers)
	if err != nil {
		t.Fatalf("Margin: %v", err)
	}
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		if got != want {
			t.Fatalf("margin = %g, naive = %g", got, want)
		}
		return
	}
	if (got >= 1) != (want >= 1) {
		t.Fatalf("verdict mismatch: engine margin %g vs naive %g", got, want)
	}
	if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-300); rel > 1e-9 {
		t.Fatalf("margin = %.17g, naive = %.17g (rel %.3g > 1e-9)", got, want, rel)
	}
	if st.Links != int64(len(idx)) {
		t.Fatalf("stats.Links = %d, want %d", st.Links, len(idx))
	}
	if st.NaivePairs != int64(len(idx))*int64(len(idx)-1) {
		t.Fatalf("stats.NaivePairs = %d, want m(m-1) = %d", st.NaivePairs, len(idx)*(len(idx)-1))
	}
}

// TestEngineMatchesMarginExactPath covers the small-slot cutoff: every size
// below the grid threshold must match the naive oracle bit-for-bit in
// verdict and ≤1e-9 in margin, across exponents and noise regimes.
func TestEngineMatchesMarginExactPath(t *testing.T) {
	for _, alpha := range []float64{2.1, 3, 4} {
		for _, noise := range []float64{0, 0.03} {
			p := Params{Alpha: alpha, Beta: 2, Noise: noise, Epsilon: 0.5}
			for _, m := range []int{1, 2, 3, 8, 40, 64} {
				links := randLinks(m, 1000, int64(m)*7+int64(alpha*10))
				checkParity(t, p, links, fullSlot(m), randPowers(m, int64(m)))
			}
		}
	}
}

// TestEngineMatchesMarginGridPath forces the grid pyramid (m above the
// cutoff) on uniform and clustered layouts.
func TestEngineMatchesMarginGridPath(t *testing.T) {
	for _, alpha := range []float64{2.1, 3, 4} {
		p := Params{Alpha: alpha, Beta: 1, Noise: 0, Epsilon: 0.5}
		for _, m := range []int{65, 200, 1000} {
			links := randLinks(m, 5000, int64(m)+int64(alpha))
			checkParity(t, p, links, fullSlot(m), randPowers(m, int64(m)+1))

			cl := clusterLinks(m, int64(m)+2)
			checkParity(t, p, cl, fullSlot(m), randPowers(m, int64(m)+3))
		}
	}
}

// TestEngineSharedFrontierParity runs a huge slot (above the 2¹³-sender
// grid-occupancy step) through the frontier-shared first pass and checks,
// on uniform and clustered layouts, that the margin matches the naive
// oracle.
func TestEngineSharedFrontierParity(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic oracle on a large slot")
	}
	m := 1<<13 + 123
	p := Params{Alpha: 3, Beta: 1, Noise: 0, Epsilon: 0.5}
	layouts := map[string][]geom.Link{
		"uniform": randLinks(m, 20000, 31),
		"cluster": clusterLinks(m, 32),
	}
	for name, links := range layouts {
		powers := randPowers(m, 33)
		idx := fullSlot(m)
		eng := NewEngine(p, links)
		var st EngineStats
		got, err := eng.MarginSlot(idx, powers, NewEngineScratch(), &st)
		if err != nil {
			t.Fatalf("%s: MarginSlot: %v", name, err)
		}
		slotLinks := make([]geom.Link, m)
		for k, i := range idx {
			slotLinks[k] = links[i]
		}
		want, err := p.Margin(slotLinks, powers)
		if err != nil {
			t.Fatalf("%s: Margin: %v", name, err)
		}
		if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-300); rel > 1e-9 {
			t.Fatalf("%s: margin %.17g vs naive %.17g (rel %.3g)", name, got, want, rel)
		}
	}
}

// TestEngineSubsetSlot verifies that slots referencing a strict subset of
// the engine's link set (the normal case: one schedule, many slots) index
// correctly.
func TestEngineSubsetSlot(t *testing.T) {
	p := DefaultParams()
	links := randLinks(500, 2000, 11)
	r := rand.New(rand.NewSource(12))
	idx := r.Perm(500)[:180]
	checkParity(t, p, links, idx, randPowers(180, 13))
}

// TestEngineLongLinks places links whose length rivals the deployment
// extent, so a link's own sender falls in a *far* pyramid node relative to
// its receiver — the self-mass-subtraction path of the far-field bound.
func TestEngineLongLinks(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	links := make([]geom.Link, 300)
	for i := range links {
		s := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		d := geom.Point{X: (r.Float64() - 0.5) * 1500, Y: (r.Float64() - 0.5) * 1500}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	checkParity(t, DefaultParams(), links, fullSlot(300), randPowers(300, 22))
}

// TestEngineDegenerate covers the grid's bail-outs: co-located senders
// (zero extent) and a sender coinciding with another link's receiver
// (infinite interference, margin 0).
func TestEngineDegenerate(t *testing.T) {
	p := DefaultParams()
	// All senders at the origin: grid extent 0, exact fallback.
	links := make([]geom.Link, 100)
	for i := range links {
		links[i] = geom.NewLink(2*i, 2*i+1, geom.Point{},
			geom.Point{X: 1 + float64(i)*0.01, Y: 1})
	}
	checkParity(t, p, links, fullSlot(100), randPowers(100, 31))

	// links[1]'s sender sits exactly on links[0]'s receiver.
	links2 := randLinks(80, 100, 32)
	links2[1].S = links2[0].R
	eng := NewEngine(p, links2)
	var st EngineStats
	got, err := eng.MarginSlot(fullSlot(80), randPowers(80, 33), NewEngineScratch(), &st)
	if err != nil || got != 0 {
		t.Fatalf("coincident sender/receiver: margin=%g err=%v, want 0, nil", got, err)
	}
}

// TestEngineHandComputed mirrors the schedule test's hand-computed slot:
// two unit links at distance 10, uniform power, α=3, β=2 → margin 364.5.
func TestEngineHandComputed(t *testing.T) {
	p := Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0}
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 11}),
	}
	eng := NewEngine(p, links)
	var st EngineStats
	got, err := eng.MarginSlot([]int{0, 1}, []float64{1, 1}, NewEngineScratch(), &st)
	if err != nil || math.Abs(got-364.5) > 1e-9 {
		t.Fatalf("margin = %g err = %v, want 364.5, nil", got, err)
	}
}

// TestEngineErrors: the engine must reproduce Params.Margin's error
// conditions (and messages) so the schedule wrapper's output is identical.
func TestEngineErrors(t *testing.T) {
	p := DefaultParams()
	links := randLinks(4, 100, 41)
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats

	if _, err := eng.MarginSlot([]int{0, 1}, []float64{1}, sc, &st); err == nil ||
		!strings.Contains(err.Error(), "2 links but 1 powers") {
		t.Fatalf("length mismatch: err = %v", err)
	}
	_, err := eng.MarginSlot([]int{0, 1, 2}, []float64{1, -1, 1}, sc, &st)
	if err == nil || !strings.Contains(err.Error(), "non-positive power -1 on link 1") {
		t.Fatalf("bad power: err = %v", err)
	}
	want, werr := p.Margin([]geom.Link{links[0], links[1], links[2]}, []float64{1, -1, 1})
	if werr == nil || want != 0 || err.Error() != werr.Error() {
		t.Fatalf("error text diverges from naive: engine %q vs naive %q", err, werr)
	}
	if _, err := eng.MarginSlot([]int{0, 99}, []float64{1, 1}, sc, &st); err == nil {
		t.Fatal("out-of-range link index accepted")
	}
}

// TestEngineScratchReuse: buffers reused across slots of very different
// sizes must not leak state between calls.
func TestEngineScratchReuse(t *testing.T) {
	p := DefaultParams()
	links := randLinks(800, 3000, 51)
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats
	sizes := []int{700, 12, 300, 1, 800, 90}
	for trial, m := range sizes {
		idx := fullSlot(m)
		pw := randPowers(m, int64(trial))
		got, err := eng.MarginSlot(idx, pw, sc, &st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var fresh EngineStats
		want, err := eng.MarginSlot(idx, pw, NewEngineScratch(), &fresh)
		if err != nil || got != want {
			t.Fatalf("trial %d: reused scratch margin %g != fresh %g (err %v)", trial, got, want, err)
		}
	}
}

// TestEngineStatsAccumulate: Add must sum every counter and ExactPairsFrac
// must be exact-work over naive-work.
func TestEngineStatsAccumulate(t *testing.T) {
	a := EngineStats{Links: 1, ExactLinks: 2, ExactPairs: 3, NearPairs: 4,
		FarNodes: 5, RefinedLinks: 6, RefinedCells: 7, NaivePairs: 12}
	b := a
	b.Add(a)
	if b != (EngineStats{2, 4, 6, 8, 10, 12, 14, 24}) {
		t.Fatalf("Add = %+v", b)
	}
	if got := b.ExactPairsFrac(); got != float64(6+8)/24 {
		t.Fatalf("ExactPairsFrac = %g", got)
	}
	if (EngineStats{}).ExactPairsFrac() != 0 {
		t.Fatal("empty stats must have frac 0")
	}
}

// TestEngineStatsFracInvariant: the per-link distinct-pair accounting must
// keep ExactPairsFrac ≤ 1 on real engine runs — including small slots just
// above the grid cutoff (the historical >1.0 regime) and when stats are
// accumulated across repeated verification passes, as the γ-escalation
// retry loop does.
func TestEngineStatsFracInvariant(t *testing.T) {
	p := DefaultParams()
	var acc EngineStats
	for _, m := range []int{65, 70, 80, 100, 150, 300, 1000, 2500} {
		links := randLinks(m, 2000, int64(m))
		eng := NewEngine(p, links)
		sc := NewEngineScratch()
		var st EngineStats
		if _, err := eng.MarginSlot(fullSlot(m), randPowers(m, int64(m)+5), sc, &st); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if f := st.ExactPairsFrac(); f > 1 {
			t.Fatalf("m=%d: ExactPairsFrac %g > 1 (stats %+v)", m, f, st)
		}
		if st.ExactPairs+st.NearPairs > st.NaivePairs {
			t.Fatalf("m=%d: pairs %d+%d exceed naive %d", m, st.ExactPairs, st.NearPairs, st.NaivePairs)
		}
		acc.Add(st)
		// A second pass over the same slot, accumulated like a γ retry.
		if _, err := eng.MarginSlot(fullSlot(m), randPowers(m, int64(m)+5), sc, &st); err != nil {
			t.Fatalf("m=%d retry: %v", m, err)
		}
		acc.Add(st)
	}
	if f := acc.ExactPairsFrac(); f > 1 {
		t.Fatalf("accumulated ExactPairsFrac %g > 1 (stats %+v)", f, acc)
	}
}

// BenchmarkMargin compares the naive O(m²) Margin with the engine on one
// large slot — the per-slot speedup layer 1+2 buy before slot parallelism.
func BenchmarkMargin(b *testing.B) {
	links := randLinks(4000, 20000, 61)
	powers := randPowers(4000, 62)
	idx := fullSlot(4000)
	p := DefaultParams()
	slotLinks := make([]geom.Link, len(idx))
	for k, i := range idx {
		slotLinks[k] = links[i]
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Margin(slotLinks, powers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(p, links)
		sc := NewEngineScratch()
		var st EngineStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.MarginSlot(idx, powers, sc, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEngineNearFieldBound bounds the tier-1 pairwise work without hardware
// timing: on a uniform slot the shared pass must re-classify each near cell
// against the member's own receiver, leaving ExactPairsFrac ≈ 0.02. Summing
// every cell the shared walk leaves near (judged against the whole
// receiver box) would read ≈ 0.09.
func TestEngineNearFieldBound(t *testing.T) {
	const m = 1200
	eng := NewEngine(DefaultParams(), randLinks(m, 5000, 71))
	var st EngineStats
	if _, err := eng.MarginSlot(fullSlot(m), randPowers(m, 72), NewEngineScratch(), &st); err != nil {
		t.Fatal(err)
	}
	if f := st.ExactPairsFrac(); f > 0.05 {
		t.Fatalf("ExactPairsFrac %.4f > 0.05 (stats %+v)", f, st)
	}
}

// TestEngineMarginBits pins the engine's margins bit for bit for every
// exponent class of powD2 — the closed forms for α ∈ {2, 3, 4} and the
// math.Pow fallback (α=2.1) — on an exact-path slot (m=40) and on
// grid-path slots, uniform and clustered. The expected bits were recorded
// from the per-α kernels the single rowSum replaced; any change to a term
// expression or to the summation order of the exact rows shows up here.
func TestEngineMarginBits(t *testing.T) {
	cases := []struct {
		alpha   float64
		m       int
		cluster bool
		bits    uint64
	}{
		{2, 40, false, 0x3fb9c6ee38e1462f},
		{2, 200, false, 0x3f960a387d22aad2},
		{2, 200, true, 0x3f73a215cc58a432},
		{2, 1000, false, 0x3f567b6c2688550f},
		{2, 1000, true, 0x3f2fb54a49aed984},
		{2.1, 40, false, 0x3fbaf4bdcc9a9a6b},
		{2.1, 200, false, 0x3f97c8dbd4b6b80c},
		{2.1, 200, true, 0x3f7229d821d7fb93},
		{2.1, 1000, false, 0x3f4f5132a1488bdc},
		{2.1, 1000, true, 0x3f2790c54c419e32},
		{3, 40, false, 0x3fbe7f68a1eff502},
		{3, 200, false, 0x3f803a308d478427},
		{3, 200, true, 0x3f5e8848fbbc9314},
		{3, 1000, false, 0x3f01f509c3c43cc1},
		{3, 1000, true, 0x3edd16dc940f7b8d},
		{4, 40, false, 0x3fae4eb1b52b3bd7},
		{4, 200, false, 0x3f53efe804bd29be},
		{4, 200, true, 0x3f4433087d109680},
		{4, 1000, false, 0x3eabf2782669bf65},
		{4, 1000, true, 0x3e863d225db48b60},
	}
	for _, c := range cases {
		links := randLinks(c.m, 5000, int64(c.m)+7)
		if c.cluster {
			links = clusterLinks(c.m, int64(c.m)+8)
		}
		p := Params{Alpha: c.alpha, Beta: 1, Noise: 0, Epsilon: 0.5}
		var st EngineStats
		got, err := NewEngine(p, links).MarginSlot(fullSlot(c.m), randPowers(c.m, int64(c.m)+9), NewEngineScratch(), &st)
		if err != nil {
			t.Fatalf("α=%g m=%d cluster=%v: %v", c.alpha, c.m, c.cluster, err)
		}
		if want := math.Float64frombits(c.bits); got != want {
			t.Errorf("α=%g m=%d cluster=%v: margin %.17g, want %.17g", c.alpha, c.m, c.cluster, got, want)
		}
	}
}
