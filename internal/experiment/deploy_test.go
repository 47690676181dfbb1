package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"aggrate/internal/scheduler"
)

// TestDeployCacheSharedBuild: a same-deployment strategy grid (one
// scenario/n/seed, four algorithms) through a shared cache pays generation
// and EMST exactly once, and every result is bit-identical to a cold run of
// the same spec.
func TestDeployCacheSharedBuild(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	algos := []string{scheduler.Greedy, scheduler.LengthClass, scheduler.DSatur, scheduler.JP}
	specs := Expand([]Scenario{sc}, []int{400}, 1, nil, algos, base)
	if len(specs) != len(algos) {
		t.Fatalf("grid expanded to %d specs, want %d", len(specs), len(algos))
	}

	dc := NewDeployCache(4)
	out, err := (&Runner{Workers: 4, Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	hits, misses, evictions := dc.Stats()
	if misses != 1 || hits != int64(len(specs)-1) || evictions != 0 {
		t.Fatalf("cache stats hits=%d misses=%d evictions=%d, want %d/1/0",
			hits, misses, evictions, len(specs)-1)
	}
	builders := 0
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		if res.Timings.DeployReused {
			if res.Timings.GenerateSec != 0 || res.Timings.MSTSec != 0 {
				t.Fatalf("spec %d: reused deployment still reports gen=%g mst=%g",
					i, res.Timings.GenerateSec, res.Timings.MSTSec)
			}
		} else {
			builders++
		}
	}
	if builders != 1 {
		t.Fatalf("%d specs built the deployment, want exactly 1", builders)
	}
	for i, spec := range specs {
		cold := Run(context.Background(), spec)
		cold.Timings, out[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(cold)
		oj, _ := json.Marshal(out[i])
		if string(cj) != string(oj) {
			t.Fatalf("spec %d: shared-deployment result differs from cold run\nshared: %s\ncold:   %s", i, oj, cj)
		}
	}
}

// TestSharedCacheParity: a batch sharing one instance cache across seeds
// and algorithms returns, field for field, what one cold experiment.Run per
// spec returns.
func TestSharedCacheParity(t *testing.T) {
	sc := uniformScenario(t)
	algos := []string{scheduler.Greedy, scheduler.DSatur}
	specs := Expand([]Scenario{sc}, []int{300}, 2, nil, algos, NewSpec(sc, 0, 0))
	dc := NewDeployCache(0)
	out, err := (&Runner{Workers: 2, Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := dc.Stats(); hits == 0 {
		t.Fatal("same-deployment specs never shared the cache")
	}
	for i, spec := range specs {
		cold := Run(context.Background(), spec)
		if cold.Timings.DeployReused || cold.Timings.SchedReused {
			t.Fatalf("spec %d: cold run reports reuse", i)
		}
		cold.Timings, out[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(cold)
		oj, _ := json.Marshal(out[i])
		if string(cj) != string(oj) {
			t.Fatalf("spec %d: shared-cache result differs from cold run\nshared: %s\ncold:   %s", i, oj, cj)
		}
	}
}

// TestSchedCacheParity: specs differing only in power scheme share the
// pre-power stage (conflict build + ordering + coloring) through the
// deployment entry's stage map — the stage builds once per (SchedKey, γ)
// rung — and every result stays bit-identical to a cold experiment.Run of
// the same spec.
func TestSchedCacheParity(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	powers := []string{PowerMean, PowerLinear, PowerUniform}
	specs := Expand([]Scenario{sc}, []int{400}, 1, powers, []string{scheduler.Greedy}, base)
	if len(specs) != len(powers) {
		t.Fatalf("grid expanded to %d specs, want %d", len(specs), len(powers))
	}

	dc := NewDeployCache(4)
	out, err := (&Runner{Workers: len(specs), Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	attempts := int64(0)
	reusedSpecs := 0
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		attempts += int64(res.GammaRetries) + 1
		if res.Timings.SchedReused {
			reusedSpecs++
			if res.GammaRetries == 0 &&
				res.Timings.BuildSec+res.Timings.BuildFilterSec+res.Timings.OrderSec+res.Timings.ColorSec != 0 {
				t.Fatalf("spec %d: fully reused stage still reports build=%g filter=%g order=%g color=%g",
					i, res.Timings.BuildSec, res.Timings.BuildFilterSec,
					res.Timings.OrderSec, res.Timings.ColorSec)
			}
		}
	}
	hits, misses := dc.SchedStats()
	if hits+misses != attempts {
		t.Fatalf("stage cache saw %d attempts (hits=%d misses=%d), pipeline ran %d",
			hits+misses, hits, misses, attempts)
	}
	// All specs share SchedKey, so each γ rung builds at most once; with
	// three power schemes starting at the same γ at least two attempts reuse.
	if hits < int64(len(specs)-1) || reusedSpecs < len(specs)-1 {
		t.Fatalf("stage sharing too low: hits=%d reused_specs=%d, want >= %d", hits, reusedSpecs, len(specs)-1)
	}
	for i, spec := range specs {
		cold := Run(context.Background(), spec)
		if cold.Err != "" {
			t.Fatalf("cold spec %d failed: %s", i, cold.Err)
		}
		cold.Timings, out[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(cold)
		oj, _ := json.Marshal(out[i])
		if string(cj) != string(oj) {
			t.Fatalf("spec %d: stage-cached result differs from cold run\ncached: %s\ncold:   %s", i, oj, cj)
		}
	}
}

// TestSchedCacheGammaSweep: γ is excluded from SchedKey and sub-keyed per
// concrete rung, so a spec starting at γ=3 reuses the rung a γ=2 spec's
// escalation already built whenever the ladders land on the same value
// (2·1.5 = 3), while rungs never reached stay unshared.
func TestSchedCacheGammaSweep(t *testing.T) {
	sc := uniformScenario(t)
	dc := NewDeployCache(4)
	a := NewSpec(sc, 400, 1)
	b := NewSpec(sc, 400, 1)
	b.Gamma = 3
	outA, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{a})
	if err != nil || outA[0].Err != "" {
		t.Fatalf("gamma=2 run failed: %v / %s", err, outA[0].Err)
	}
	_, missesBefore := dc.SchedStats()
	outB, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{b})
	if err != nil || outB[0].Err != "" {
		t.Fatalf("gamma=3 run failed: %v / %s", err, outB[0].Err)
	}
	hits, misses := dc.SchedStats()
	reachedThree := outA[0].GammaRetries >= 1 // 2 → 3 via the 1.5 step
	if reachedThree {
		if hits == 0 || !outB[0].Timings.SchedReused {
			t.Fatalf("gamma=3 spec missed the rung the gamma=2 ladder built: hits=%d reused=%t",
				hits, outB[0].Timings.SchedReused)
		}
	} else if misses == missesBefore {
		t.Fatalf("gamma=3 spec built nothing: misses stuck at %d", misses)
	}
	cold := Run(context.Background(), b)
	cold.Timings, outB[0].Timings = Timings{}, Timings{}
	cj, _ := json.Marshal(cold)
	oj, _ := json.Marshal(outB[0])
	if string(cj) != string(oj) {
		t.Fatalf("gamma-sweep cached result differs from cold run\ncached: %s\ncold:   %s", oj, cj)
	}
}

// TestDeployCacheEviction: an entry-capped cache evicts least-recently-used
// deployments; correctness is untouched, only reuse is shed.
func TestDeployCacheEviction(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	// Three deployments (seeds), sequentially, through a single-entry cache.
	specs := Expand([]Scenario{sc}, []int{200}, 3, nil, []string{scheduler.Greedy}, base)
	dc := NewDeployCache(1)
	out, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		if res.Timings.DeployReused {
			t.Fatalf("spec %d reused across distinct deployments", i)
		}
	}
	_, misses, evictions := dc.Stats()
	if misses != 3 || evictions != 2 || dc.Len() != 1 {
		t.Fatalf("misses=%d evictions=%d len=%d, want 3/2/1", misses, evictions, dc.Len())
	}

	// A second pass over the last deployment hits what the cache retained.
	last := specs[len(specs)-1]
	if _, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{last}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := dc.Stats(); hits != 1 {
		t.Fatalf("retained deployment not reused: hits=%d", hits)
	}
}

// TestFlightsFailedBuild: a waiter whose builder fails builds for itself
// instead of inheriting the error, the failed entry leaves the cache, and
// an in-flight build is never evicted to make room.
func TestFlightsFailedBuild(t *testing.T) {
	m := newFlights[int](1)
	ctx := context.Background()
	started, release := make(chan struct{}), make(chan struct{})
	builderErr := make(chan error, 1)
	go func() {
		_, _, err := m.do(ctx, "k", func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("builder failed")
		})
		builderErr <- err
	}()
	<-started
	// The in-flight "k" is pinned: adding "other" must not evict it.
	if v, shared, err := m.do(ctx, "other", func() (int, error) { return 1, nil }); v != 1 || shared || err != nil {
		t.Fatalf("other: %d %t %v", v, shared, err)
	}
	type out struct {
		v      int
		shared bool
		err    error
	}
	waiter := make(chan out, 1)
	go func() {
		v, shared, err := m.do(ctx, "k", func() (int, error) { return 7, nil })
		waiter <- out{v, shared, err}
	}()
	for {
		m.mu.Lock()
		hits, _, _ := m.lru.Stats()
		m.mu.Unlock()
		if hits == 1 {
			break // the waiter holds the in-flight entry
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-builderErr; err == nil {
		t.Fatal("builder error lost")
	}
	if o := <-waiter; o.v != 7 || o.shared || o.err != nil {
		t.Fatalf("waiter got %+v, want its own build of 7", o)
	}
	m.mu.Lock()
	_, kept := m.lru.Peek("k")
	m.mu.Unlock()
	if kept {
		t.Fatal("failed build stayed cached")
	}
}
