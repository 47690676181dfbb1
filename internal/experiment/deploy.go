// Stage-split instance cache: a Spec factors into a deployment prefix
// (scenario, size, seed, sink — the fields that determine the pointset, the
// aggregation tree, and hence every conflict build over its links) and a
// scheduling tail (power, graph, algo, γ/δ, SINR, verify knobs). Specs that
// share the prefix — a 4-algo compare grid, near-key service jobs differing
// only in algo or power — share one generation, one EMST, and one
// strength-annotated lookahead build per γ ceiling, instead of recomputing
// the deployment per spec. Results are bit-identical to cold runs: the
// cached artifacts are the exact objects a cold run would have built
// (generation and EMST are deterministic in the prefix, and the shared
// conflict.Lookahead serves bit-identical graphs by its own parity
// contract), and every cached object is treated as immutable downstream.
package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/lru"
	"aggrate/internal/mst"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
)

// DeployKey returns the deployment prefix of the spec's canonical form:
// the fields that fully determine the generated pointset and its EMST
// (scenario preset, size, seed, sink). Specs with equal DeployKeys run the
// scheduling pipeline over the same deployment, which is what makes the
// instance cache sound. It is also the exact prefix of the canonical string
// SpecKey hashes.
func DeployKey(s Spec) string {
	n := s.normalized()
	name := ""
	if n.Scenario != nil {
		name = n.Scenario.PresetName()
	}
	return fmt.Sprintf("%s|%d|%d|%d", name, n.N, n.Seed, n.Sink)
}

// SchedKey returns a canonical content hash of the spec's pre-power
// scheduling prefix: the deployment (DeployKey) plus every field the
// ordering+coloring+schedule stage reads — graph kind, algorithm, δ, and the
// SINR constants. It is SpecKey minus the power scheme and the
// verification/escalation knobs. γ is deliberately absent too: the stage
// runs at a concrete (possibly escalated) γ, so the stage cache sub-keys
// each build by the attempt's γ — power-scheme-only spec variants and
// γ-sweeps that reach the same rung then share one ordering+coloring build.
func SchedKey(s Spec) string {
	n := s.normalized()
	h := sha256.Sum256([]byte(DeployKey(s) + fmt.Sprintf("|sched|%s|%s|%g|%g|%g|%g|%g",
		n.Graph, n.Algo, n.Delta,
		n.SINR.Alpha, n.SINR.Beta, n.SINR.Noise, n.SINR.Epsilon)))
	return hex.EncodeToString(h[:16])
}

// schedGammaKey is the stage cache's sub-key: the SchedKey prefix plus the
// attempt's concrete γ, printed exactly (hex float) so distinct rungs never
// collide through decimal rounding.
func schedGammaKey(schedKey string, gamma float64) string {
	return schedKey + "|" + strconv.FormatFloat(gamma, 'x', -1, 64)
}

// flight is one singleflight build: its first requester runs the build and
// closes ready; after that val and err are immutable.
type flight[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

func (f *flight[V]) done() bool {
	select {
	case <-f.ready:
		return true
	default:
		return false
	}
}

// flights is a keyed singleflight over an LRU: concurrent requests for a
// missing key collapse into one build, which the LRU keeps for the
// requests that follow. Builds in flight are never evicted — their waiters
// hold the entry — and a failed build is dropped so the next request
// retries instead of replaying the error. Safe for concurrent use.
type flights[V any] struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *flight[V]]
}

// newFlights returns an empty map holding at most maxEntries builds
// (≤ 0 means unbounded).
func newFlights[V any](maxEntries int) *flights[V] {
	c := lru.New[string, *flight[V]](maxEntries, 0)
	c.Pinned = func(f *flight[V]) bool { return !f.done() }
	return &flights[V]{lru: c}
}

// do returns key's value, running build on a miss and publishing its
// outcome. A waiter whose builder failed runs build itself, under its own
// context — the cache can delay a request but never fail one on another's
// behalf. shared reports a value built by another request, so the caller
// can skip stamping timings for work that never ran on its behalf.
func (m *flights[V]) do(ctx context.Context, key string, build func() (V, error)) (v V, shared bool, err error) {
	m.mu.Lock()
	f, hit := m.lru.Get(key)
	if !hit {
		f = &flight[V]{ready: make(chan struct{})}
		m.lru.Add(key, f, 0)
	}
	m.mu.Unlock()
	if !hit {
		f.val, f.err = build()
		close(f.ready)
		if f.err != nil {
			m.mu.Lock()
			m.lru.RemoveFunc(func(_ string, cur *flight[V]) bool { return cur == f })
			m.mu.Unlock()
		}
		return f.val, false, f.err
	}
	select {
	case <-ctx.Done():
		return v, false, ctx.Err()
	case <-f.ready:
	}
	if f.err != nil {
		v, err = build()
		return v, false, err
	}
	return f.val, true, nil
}

// deployEntry holds the deployment-determined artifacts of one DeployKey,
// immutable and safe to share across instances once built.
type deployEntry struct {
	pts  []geom.Point
	tree *mst.Tree

	// las shares one conflict.Lookahead per γ ceiling across the specs of
	// this deployment. A Lookahead is internally keyed by (family, link-set
	// content) and safe for concurrent use, so specs with different graph
	// kinds or deltas coexist in one; the ceiling must match exactly
	// because the annotated build's strengths only cover γ ≤ ceiling.
	laMu sync.Mutex
	las  map[float64]*conflict.Lookahead

	// scheds shares the pre-power stage product — the schedule skeleton and
	// its strategy diagnostics — across the specs of this deployment, keyed
	// by schedGammaKey (SchedKey + the attempt's concrete γ). Strategies are
	// deterministic in (links, Config) and the cached *schedule.Schedule and
	// Diag are immutable after publish, so a reused stage is bit-identical
	// to the build a cold run would have done.
	scheds *flights[stage]
}

// stage is one pre-power stage product: the schedule skeleton
// (ordering+coloring) of one (SchedKey, γ) and its strategy diagnostics.
type stage struct {
	sched *schedule.Schedule
	diag  scheduler.Diag
}

// lookaheadFor returns the entry's shared Lookahead armed at the given γ
// ceiling, creating it on first request.
func (e *deployEntry) lookaheadFor(top float64) *conflict.Lookahead {
	e.laMu.Lock()
	defer e.laMu.Unlock()
	la := e.las[top]
	if la == nil {
		la = conflict.NewLookahead(top)
		e.las[top] = la
	}
	return la
}

// DeployCache is an LRU cache of deployment artifacts keyed by DeployKey,
// shared across the specs of a batch (and, in the serving layer, across
// jobs). Concurrent requests for the same missing key collapse into one
// build: the first caller generates the deployment while the rest wait on
// it. Safe for concurrent use.
type DeployCache struct {
	deploys *flights[*deployEntry]

	// Pre-power stage cache counters, across every deployment entry: a hit
	// is an escalation attempt served by a cached ordering+coloring build
	// (possibly after waiting for its builder), a miss is an attempt that
	// built the stage. Atomics, shared by every deployment's stage map.
	schedHits, schedMisses atomic.Int64
}

// DefaultDeployCacheEntries is the entry budget NewDeployCache installs for
// batch runners: deployments are large (points, tree, annotated conflict
// builds), and a compare grid only ever needs the deployments of one
// (scenario, n, seed) cell at a time per worker.
const DefaultDeployCacheEntries = 4

// NewDeployCache returns an empty cache holding at most maxEntries
// deployments (≤ 0 means DefaultDeployCacheEntries).
func NewDeployCache(maxEntries int) *DeployCache {
	if maxEntries <= 0 {
		maxEntries = DefaultDeployCacheEntries
	}
	return &DeployCache{deploys: newFlights[*deployEntry](maxEntries)}
}

// Len reports the number of cached deployments (including in-flight builds).
func (dc *DeployCache) Len() int {
	dc.deploys.mu.Lock()
	defer dc.deploys.mu.Unlock()
	return dc.deploys.lru.Len()
}

// Stats reports the cache's lifetime hit/miss/eviction counters. A hit is a
// request served by an existing entry (possibly waiting for its builder);
// a miss is a request that had to build.
func (dc *DeployCache) Stats() (hits, misses, evictions int64) {
	dc.deploys.mu.Lock()
	defer dc.deploys.mu.Unlock()
	return dc.deploys.lru.Stats()
}

// SchedStats reports the pre-power stage cache's lifetime hit/miss counters:
// hits are escalation attempts whose ordering+coloring+schedule skeleton was
// served by a cached build (power-scheme-only spec variants and γ-sweep
// rungs landing on a stage another spec already built), misses are attempts
// that built the stage.
func (dc *DeployCache) SchedStats() (hits, misses int64) {
	return dc.schedHits.Load(), dc.schedMisses.Load()
}

// schedFor resolves one escalation attempt's pre-power stage product through
// dep's stage cache: a hit shares the cached schedule skeleton and strategy
// diagnostics, a miss runs build (the strategy invocation) and publishes the
// product for the attempts that follow. reused reports a hit.
func (dc *DeployCache) schedFor(ctx context.Context, dep *deployEntry, key string,
	build func() (*schedule.Schedule, scheduler.Diag, error)) (*schedule.Schedule, scheduler.Diag, bool, error) {
	st, reused, err := dep.scheds.do(ctx, key, func() (stage, error) {
		dc.schedMisses.Add(1)
		sched, diag, err := build()
		return stage{sched, diag}, err
	})
	if reused {
		dc.schedHits.Add(1)
	}
	return st.sched, st.diag, reused, err
}

// deployFor resolves the deployment artifacts for spec through the cache:
// a hit shares the cached pointset/tree (stamping Timings.DeployReused), a
// miss builds them, stamping the per-stage timings, and publishes the entry
// for the specs that follow.
func deployFor(ctx context.Context, spec Spec, dc *DeployCache, t *Timings) (*deployEntry, error) {
	e, reused, err := dc.deploys.do(ctx, DeployKey(spec), func() (*deployEntry, error) {
		e := &deployEntry{las: make(map[float64]*conflict.Lookahead), scheds: newFlights[stage](0)}
		return e, buildDeploy(ctx, spec, e, t)
	})
	t.DeployReused = reused
	return e, err
}

// buildDeploy runs the deployment stages (generate, EMST) into e, stamping
// the same per-stage timings the cold pipeline records.
func buildDeploy(ctx context.Context, spec Spec, e *deployEntry, t *Timings) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t0 := time.Now()
	e.pts = spec.Scenario.Generate(spec.N, spec.Seed)
	t.GenerateSec = time.Since(t0).Seconds()

	if err := ctx.Err(); err != nil {
		return err
	}
	t0 = time.Now()
	tree, err := mst.NewMSTTreeCtx(ctx, e.pts, spec.Sink)
	if err != nil {
		return fmt.Errorf("experiment: mst: %w", err)
	}
	e.tree = tree
	t.MSTSec = time.Since(t0).Seconds()
	return nil
}
