package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/experiment"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/power"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// spanNames are the layer calls the replay times, in pipeline order. They
// do not nest, so their sum is the attributed part of the traced certify
// time. power.solve_s is not among them: it runs inside schedule.verify.
var spanNames = []string{
	"mst.emst", "mst.tree", "power.assign", "conflict.build", "conflict.filter",
	"coloring.order", "coloring.color", "schedule.from_coloring", "scheduler.schedule", "schedule.verify",
}

type spanTotal struct {
	sec, alloc float64
	count      int
}

// layerStats collects one traced replay: wall time and bytes allocated per
// span, and the layers' work counters.
type layerStats struct {
	spans   map[string]*spanTotal
	certify float64

	edges                                           int
	candScanned, candAccepted, cellsScanned, pruned int64
	slots, reusedSlots, reusedGrids, attempts       int
	vcacheBytes                                     int64
	engine                                          sinr.EngineStats

	mu         sync.Mutex // guards the power.Solve counters, fed from parallel slot verification
	solveSec   float64
	solves     int64
	solvePairs int64
}

func newLayerStats() *layerStats {
	ls := &layerStats{spans: make(map[string]*spanTotal)}
	for _, name := range spanNames {
		ls.spans[name] = &spanTotal{}
	}
	return ls
}

// span times f as one call into a layer.
func (ls *layerStats) span(name string, f func() error) error {
	a0, t0 := allocBytes(), time.Now()
	err := f()
	ls.record(name, a0, t0)
	return err
}

// record books the call that started at t0, with a0 bytes allocated, as one
// span of name.
func (ls *layerStats) record(name string, a0 float64, t0 time.Time) {
	st := ls.spans[name]
	st.sec += time.Since(t0).Seconds()
	st.alloc += allocBytes() - a0
	st.count++
}

// replayed is what one spec's replay produced.
type replayed struct {
	tree    *mst.Tree
	graph   *conflict.Graph
	colorOf []int // per-link colors, for strategies that color one graph
	sched   *schedule.Schedule
	colors  int
	gamma   float64
	margin  float64
}

// check is the invariant half of the gate on a replay.
func (r replayed) check() error {
	if !(r.margin >= 1) {
		return fmt.Errorf("replay margin %v < 1", r.margin)
	}
	return checkArtifacts(r.tree, r.sched, r.graph, r.colorOf)
}

// replayJob replays one job from the benchmark's side: the deployment's
// EMST and tree once, as the batch instance cache shares them, then each
// spec's schedule-and-verify loop in turn.
func replayJob(ctx context.Context, specs []experiment.Spec, pts []geom.Point, ls *layerStats) ([]replayed, error) {
	t0 := time.Now()
	defer func() { ls.certify = time.Since(t0).Seconds() }()
	var edges []mst.Edge
	err := ls.span("mst.emst", func() (err error) {
		edges, err = mst.EMSTCtx(ctx, pts)
		return err
	})
	if err != nil {
		return nil, err
	}
	var tree *mst.Tree
	err = ls.span("mst.tree", func() (err error) {
		tree, err = mst.Build(pts, edges, specs[0].Sink)
		return err
	})
	if err != nil {
		return nil, err
	}
	outs := make([]replayed, len(specs))
	for i, s := range specs {
		if outs[i], err = replaySpec(ctx, s.Normalized(), tree, ls); err != nil {
			return nil, fmt.Errorf("%s: %w", specLabel(s), err)
		}
	}
	return outs, nil
}

// replaySpec replays experiment's γ-escalation loop for one spec over a
// built tree: the same lookahead ceilings, conflict graphs, orderings,
// colorings and incremental verification cache, each layer call in a span.
func replaySpec(ctx context.Context, spec experiment.Spec, tree *mst.Tree, ls *layerStats) (replayed, error) {
	out := replayed{tree: tree}
	links := tree.Links
	// The diversity figures experiment derives before scheduling.
	if _, err := geom.LinkDiversity(links); err != nil {
		return out, err
	}
	if _, err := geom.LinkLog2Diversity(links); err != nil {
		return out, err
	}
	pf, err := ls.powerFunc(spec, links)
	if err != nil {
		return out, err
	}
	strat, err := scheduler.Lookup(spec.Algo)
	if err != nil {
		return out, err
	}
	vc := schedule.NewVerifyCache(spec.SINR)
	defer func() { ls.vcacheBytes += vc.Bytes() }()
	gamma := spec.Gamma
	var la *conflict.Lookahead
	for attempt := 0; ; attempt++ {
		if la == nil || gamma > la.GammaMax() {
			depth := min(spec.GammaLookahead, spec.MaxGammaRetries-attempt)
			top := gamma
			for i := 0; i < depth; i++ {
				top *= spec.GammaStep
			}
			la = conflict.NewLookahead(top)
		}
		cfg := scheduler.Config{Graph: spec.Graph, Gamma: gamma, Delta: spec.Delta, SINR: spec.SINR, Lookahead: la}
		if spec.Algo == scheduler.Greedy {
			err = ls.greedy(ctx, links, cfg, &out)
		} else {
			// Strategies the replay does not decompose are one span.
			err = ls.span("scheduler.schedule", func() error {
				sched, diag, err := strat.Schedule(ctx, links, cfg)
				out.graph, out.colorOf, out.sched, out.colors = diag.Graph, diag.Colors, sched, diag.NumColors
				return err
			})
		}
		if err != nil {
			return out, err
		}
		out.gamma = gamma

		var margin float64
		var vst schedule.VerifyStats
		verr := ls.span("schedule.verify", func() error {
			var err error
			margin, vst, err = out.sched.VerifySINRDelta(ctx, spec.SINR, pf, vc)
			return err
		})
		ls.attempts++
		ls.slots += vst.Slots
		ls.reusedSlots += vst.ReusedSlots
		ls.reusedGrids += vst.ReusedGrids
		ls.engine.Add(vst.Engine)
		if verr == nil {
			out.margin = math.Min(margin, 1e30) // experiment's JSON clamp
			return out, nil
		}
		if attempt >= spec.MaxGammaRetries {
			return out, fmt.Errorf("still infeasible after %d escalations: %w", attempt, verr)
		}
		gamma *= spec.GammaStep
	}
}

// greedy is the greedy strategy decomposed into its layer calls: the
// lookahead graph, the length order, first-fit, and the schedule.
func (ls *layerStats) greedy(ctx context.Context, links []geom.Link, cfg scheduler.Config, out *replayed) error {
	fam, err := cfg.ConflictFamily()
	if err != nil {
		return err
	}
	// A fresh lookahead builds on first use; later rungs filter its graph.
	a0, t0 := allocBytes(), time.Now()
	g, st, err := cfg.Lookahead.GraphFor(ctx, links, fam, cfg.Gamma)
	if st.Reused {
		ls.record("conflict.filter", a0, t0)
	} else {
		ls.record("conflict.build", a0, t0)
	}
	if err != nil {
		return err
	}
	if !st.Reused {
		ls.candScanned += g.Stats.CandScanned
		ls.candAccepted += g.Stats.CandAccepted
		ls.cellsScanned += g.Stats.CellsScanned
		ls.pruned += g.Stats.CellsPruned
	}
	ls.edges = g.Edges()

	ws := coloring.NewWorkspace()
	var order []int
	_ = ls.span("coloring.order", func() error {
		order = ws.LengthOrder(g)
		return nil
	})
	colors := make([]int, g.N())
	var k int
	_ = ls.span("coloring.color", func() error {
		k = ws.FirstFit(g, order, colors)
		return nil
	})
	var sched *schedule.Schedule
	err = ls.span("schedule.from_coloring", func() (err error) {
		sched, err = schedule.FromColoring(links, colors)
		return err
	})
	out.graph, out.colorOf, out.sched, out.colors = g, colors, sched, k
	return err
}

// powerFunc returns the spec's slot-power supplier, as experiment derives
// it: an oblivious assignment computed once (span power.assign), or for
// global power control a per-slot power.Solve memoized by slot content,
// whose calls are counted and timed.
func (ls *layerStats) powerFunc(spec experiment.Spec, links []geom.Link) (schedule.PowerFunc, error) {
	var sch power.Oblivious
	switch spec.Power {
	case experiment.PowerUniform:
		sch = power.Uniform()
	case experiment.PowerMean:
		sch = power.Mean()
	case experiment.PowerLinear:
		sch = power.Linear()
	case experiment.PowerGlobal:
		var mu sync.Mutex
		memo := make(map[string][]float64)
		return func(_ int, idx []int) ([]float64, error) {
			t0 := time.Now()
			defer func() {
				ls.mu.Lock()
				ls.solveSec += time.Since(t0).Seconds()
				ls.mu.Unlock()
			}()
			raw := make([]byte, 0, 4*len(idx))
			for _, i := range idx {
				raw = append(raw, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			}
			key := string(raw)
			mu.Lock()
			v, ok := memo[key]
			mu.Unlock()
			if ok {
				return v, nil
			}
			slot := make([]geom.Link, len(idx))
			for k, i := range idx {
				slot[k] = links[i]
			}
			v, err := power.Solve(slot, spec.SINR, power.SolveOptions{})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			memo[key] = v
			mu.Unlock()
			ls.mu.Lock()
			ls.solves++
			ls.solvePairs += int64(len(idx)) * int64(len(idx))
			ls.mu.Unlock()
			return v, nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown power scheme %q", spec.Power)
	}
	var perLink []float64
	err := ls.span("power.assign", func() (err error) {
		perLink, err = sch.Assign(links, spec.SINR)
		return err
	})
	return schedule.FixedPower(perLink), err
}

// layerMetrics reduces the traced replays to the per-layer metrics: medians
// of the timings and allocations, the counters of the last replay (they are
// deterministic), and the kernel's ns per pair measured once.
func layerMetrics(runs []*layerStats) map[string]float64 {
	med := func(f func(*layerStats) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	sec := func(name string) float64 { return med(func(r *layerStats) float64 { return r.spans[name].sec }) }
	alloc := func(names ...string) float64 {
		return med(func(r *layerStats) float64 {
			var a float64
			for _, n := range names {
				a += r.spans[n].alloc
			}
			return a
		})
	}
	last := runs[len(runs)-1]
	vals := zeroLayers()
	for k, v := range map[string]float64{
		"mst.emst_s":                  sec("mst.emst"),
		"mst.tree_s":                  sec("mst.tree"),
		"mst.alloc_bytes":             alloc("mst.emst", "mst.tree"),
		"conflict.build_s":            sec("conflict.build"),
		"conflict.filter_s":           sec("conflict.filter"),
		"conflict.builds":             float64(last.spans["conflict.build"].count),
		"conflict.filters":            float64(last.spans["conflict.filter"].count),
		"conflict.edges":              float64(last.edges),
		"conflict.cand_per_edge":      ratio(last.candScanned, last.candAccepted),
		"conflict.cells_pruned_frac":  ratio(last.pruned, last.pruned+last.cellsScanned),
		"conflict.alloc_bytes":        alloc("conflict.build", "conflict.filter"),
		"coloring.order_s":            sec("coloring.order"),
		"coloring.color_s":            sec("coloring.color"),
		"coloring.alloc_bytes":        alloc("coloring.order", "coloring.color"),
		"scheduler.schedule_s":        sec("scheduler.schedule"),
		"power.assign_s":              sec("power.assign"),
		"power.solve_s":               med(func(r *layerStats) float64 { return r.solveSec }),
		"power.solves":                float64(last.solves),
		"power.solve_pairs":           float64(last.solvePairs),
		"schedule.from_coloring_s":    sec("schedule.from_coloring"),
		"schedule.verify_s":           sec("schedule.verify"),
		"schedule.attempts":           float64(last.attempts),
		"schedule.reused_slots_frac":  ratio(int64(last.reusedSlots), int64(last.slots)),
		"schedule.reused_grids":       float64(last.reusedGrids),
		"schedule.vcache_bytes":       float64(last.vcacheBytes),
		"sinr.exact_pairs_frac":       last.engine.ExactPairsFrac(),
		"sinr.exact_links":            float64(last.engine.ExactLinks),
		"sinr.refined_cells":          float64(last.engine.RefinedCells),
		"sinr.kernel_ns_per_pair":     kernelNsPerPair(),
		"experiment.traced_certify_s": med(func(r *layerStats) float64 { return r.certify }),
		"experiment.unattributed_s": med(func(r *layerStats) float64 {
			u := r.certify
			for _, st := range r.spans {
				u -= st.sec
			}
			return u
		}),
	} {
		vals[k] = v
	}
	return vals
}

// zeroLayers returns every per-layer metric at 0, the reading of a layer
// the workload does not exercise.
func zeroLayers() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = 0
	}
	return vals
}

// kernelNsPerPair times the SINR engine's near-field kernel on a synthetic
// 4096-sender slot, with the settings the CLI's bench command uses.
func kernelNsPerPair() float64 {
	return sinr.MeasureKernelNsPerPair(sinr.Params{Alpha: 3, Beta: 2, Epsilon: 0.5}, 4096, 3)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
