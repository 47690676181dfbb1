package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/experiment"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/scenario"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
)

// workload runs one workload under cfg, feeding every output to the gate,
// and returns its measured metrics by name.
type workload func(cfg config, g *gate) (map[string]float64, error)

// workloads are the benchmark's workloads by name; README.md says why each
// was chosen and why BENCHMARK.json leaves out the first two.
var workloads = map[string]workload{
	"cold-uniform-1m": pipeline{
		preset: "uniform", n: 1_000_000, power: experiment.PowerMean,
		graph: experiment.GraphOblivious, algos: []string{scheduler.Greedy},
	}.run,
	"escalate-uniform-50k": pipeline{
		preset: "uniform", n: 50_000, power: experiment.PowerUniform,
		graph: experiment.GraphOblivious, algos: []string{scheduler.Greedy},
	}.run,
	"powerctl-annulus-8k": pipeline{
		preset: "annulus-wide", n: 8000, power: experiment.PowerGlobal,
		graph: experiment.GraphArbitrary, algos: []string{scheduler.Greedy, scheduler.LengthClass},
		batch: true,
	}.run,
	"serve-mixed": runServe,
}

func workloadNames() []string { return sortedKeys(workloads) }

// pipeline is a workload that certifies the specs of one deployment per job:
// a single spec through experiment.NewInstance, or several as one batch
// over GOMAXPROCS workers.
type pipeline struct {
	preset string
	n      int
	power  string
	graph  string
	algos  []string
	batch  bool
}

// specs returns the workload's specs over the pre-generated points, handed
// to the pipeline through a NamedScenario carrying the preset's name.
func (p pipeline) specs(pts []geom.Point, seed uint64) []experiment.Spec {
	sc := experiment.NamedScenario{Name: p.preset, Gen: func(int, uint64) []geom.Point { return pts }}
	specs := make([]experiment.Spec, len(p.algos))
	for i, algo := range p.algos {
		s := experiment.NewSpec(sc, len(pts), seed)
		s.Power, s.Graph, s.Algo = p.power, p.graph, algo
		specs[i] = s
	}
	return specs
}

// specLabel names a spec in the gate's references.
func specLabel(s experiment.Spec) string {
	return label(s.Scenario.PresetName(), s.N, s.Seed, s.Power, s.Graph, s.Algo)
}

// resultLabel is specLabel of the spec a result came from.
func resultLabel(r *experiment.Result) string {
	return label(r.Scenario, r.N, r.Seed, r.Power, r.Graph, r.Algo)
}

func label(scenario string, n int, seed uint64, power, graph, algo string) string {
	return fmt.Sprintf("%s/n=%d/seed=%d/%s/%s/%s", scenario, n, seed, power, graph, algo)
}

// outcomeString is the canonical form of what the gate compares: colors,
// the γ the verified schedule used, and its SINR margin, at full precision.
func outcomeString(colors int, gamma, margin float64) string {
	return fmt.Sprintf("colors=%d gamma=%v margin=%v", colors, gamma, margin)
}

// checkResult is the invariant half of the gate on a pipeline result.
func checkResult(r *experiment.Result) error {
	switch {
	case r == nil:
		return fmt.Errorf("no result")
	case r.Err != "":
		return fmt.Errorf("pipeline error: %s", r.Err)
	case !r.Verified:
		return fmt.Errorf("schedule not SINR-verified")
	case !(r.Margin >= 1):
		return fmt.Errorf("margin %v < 1", r.Margin)
	}
	return nil
}

// checkArtifacts is the artifact half of the gate: a valid convergecast
// tree, a valid schedule, and a proper coloring of the final conflict graph
// (for strategies that color one global graph; graph is nil otherwise).
func checkArtifacts(tree *mst.Tree, sched *schedule.Schedule, graph *conflict.Graph, colors []int) error {
	if err := tree.Validate(); err != nil {
		return err
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if graph != nil {
		return coloring.Verify(graph, colors)
	}
	return nil
}

func (p pipeline) run(cfg config, g *gate) (map[string]float64, error) {
	sc, err := scenario.Lookup(p.preset)
	if err != nil {
		return nil, err
	}
	n := cfg.size(p.n)
	var pts []geom.Point
	setup := timeSetup(func() { pts = sc.Generate(n, cfg.seed) })
	specs := p.specs(pts, cfg.seed)
	if cfg.trace {
		return p.traced(cfg, g, specs, pts, setup)
	}

	ctx := context.Background()
	var times, peaks []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < cfg.seconds {
		quiesce()
		t0 := time.Now()
		results, insts, _ := p.certify(ctx, specs)
		d := time.Since(t0).Seconds()
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		times, peaks = append(times, d), append(peaks, peak)
		fmt.Fprintf(os.Stderr, "job %d: %.3f s, peak %.0f MiB\n", len(times), d, peak/(1<<20))
		p.check(g, specs, results, insts)
	}
	if p.batch {
		// A batch returns results only: certify each spec once more,
		// untimed, through NewInstance for the artifact invariants.
		for _, s := range specs {
			res, in := newInstance(ctx, s)
			p.check(g, []experiment.Spec{s}, []*experiment.Result{res}, []*experiment.Instance{in})
		}
	}
	return jobMetrics(times, times, peaks, setup), nil
}

// certify runs one job: the specs through the pipeline, timed by the caller.
// Instances are returned for single-spec jobs only. A batch runs as
// experiment.RunBatch does, with its instance cache made explicit so the
// cache's counters (deployment hits and misses, then schedule-stage hits and
// misses) can be read.
func (p pipeline) certify(ctx context.Context, specs []experiment.Spec) ([]*experiment.Result, []*experiment.Instance, [4]int64) {
	var cache [4]int64
	if p.batch {
		dc := experiment.NewDeployCache(0)
		results, _ := (&experiment.Runner{Workers: runtime.GOMAXPROCS(0), Deploy: dc}).Run(ctx, specs)
		cache[0], cache[1], _ = dc.Stats()
		cache[2], cache[3] = dc.SchedStats()
		return results, nil, cache
	}
	res, in := newInstance(ctx, specs[0])
	return []*experiment.Result{res}, []*experiment.Instance{in}, cache
}

// newInstance is experiment.NewInstance with the pipeline error folded into
// the result, as experiment.Run reports it.
func newInstance(ctx context.Context, s experiment.Spec) (*experiment.Result, *experiment.Instance) {
	in, res, err := experiment.NewInstance(ctx, s)
	if err != nil {
		if res == nil {
			res = &experiment.Result{}
		}
		res.Err = err.Error()
	}
	return res, in
}

// check gates one job's results (and instances, when kept).
func (p pipeline) check(g *gate, specs []experiment.Spec, results []*experiment.Result, insts []*experiment.Instance) {
	for i, s := range specs {
		r := results[i]
		err := checkResult(r)
		if err == nil && insts != nil {
			if insts[i] == nil {
				err = fmt.Errorf("no instance")
			} else {
				in := insts[i]
				err = checkArtifacts(in.Tree, in.Schedule, in.Graph, in.Colors)
			}
		}
		if err == nil {
			err = g.outcome(specLabel(s), outcomeString(r.Colors, r.GammaUsed, r.Margin))
		}
		g.op(specLabel(s), err)
	}
}

// jobMetrics reduces per-job latencies to the end-to-end metrics. certify
// holds the durations certify_s is the median of: one per job for the
// pipeline workloads, one per pass over the job list for serve.
func jobMetrics(certify, jobs, peaks []float64, setup float64) map[string]float64 {
	var busy float64
	for _, d := range certify {
		busy += d
	}
	return map[string]float64{
		"certify_s":      median(certify),
		"peak_rss_bytes": median(peaks),
		"setup_s":        setup,
		"jobs_per_s":     float64(len(jobs)) / busy,
		"job_p50_s":      quantile(jobs, 0.5),
		"job_p90_s":      quantile(jobs, 0.9),
	}
}

// traced alternates an untraced job with its traced replay until the run's
// time is up, and reports the per-layer metrics (medians over the traced
// replays; counts are deterministic) plus the tracing overhead.
func (p pipeline) traced(cfg config, g *gate, specs []experiment.Spec, pts []geom.Point, setup float64) (map[string]float64, error) {
	ctx := context.Background()
	var untraced []float64
	var layers []*layerStats
	var rts []runtimeCounters
	var cache [4]int64
	start := time.Now()
	for len(layers) == 0 || time.Since(start).Seconds() < cfg.seconds {
		quiesce()
		r0 := readRuntime()
		t0 := time.Now()
		results, insts, c := p.certify(ctx, specs)
		cache = c
		untraced = append(untraced, time.Since(t0).Seconds())
		rts = append(rts, readRuntime().sub(r0))
		p.check(g, specs, results, insts)

		quiesce()
		ls := newLayerStats()
		outs, err := replayJob(ctx, specs, pts, ls)
		if err != nil {
			g.op("replay", err)
			break
		}
		layers = append(layers, ls)
		for i, s := range specs {
			o := outs[i]
			err := o.check()
			if err == nil {
				err = g.outcome(specLabel(s), outcomeString(o.colors, o.gamma, o.margin))
			}
			g.op(specLabel(s)+" (replay)", err)
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("no traced replay completed")
	}
	vals := layerMetrics(layers)
	vals["scenario.gen_s"] = setup
	for i, name := range []string{"deploy_hits", "deploy_misses", "sched_hits", "sched_misses"} {
		vals["experiment."+name] = float64(cache[i])
	}
	vals["experiment.tracing_overhead_s"] = vals["experiment.traced_certify_s"] - median(untraced)
	addRuntimeMetrics(vals, rts)
	return vals, nil
}

// addRuntimeMetrics reports the median runtime counters of the untraced jobs.
func addRuntimeMetrics(vals map[string]float64, rts []runtimeCounters) {
	var alloc, cycles, cpu []float64
	for _, r := range rts {
		alloc, cycles, cpu = append(alloc, r.allocBytes), append(cycles, r.gcCycles), append(cpu, r.gcCPU)
	}
	vals["runtime.alloc_bytes"] = median(alloc)
	vals["runtime.gc_cycles"] = median(cycles)
	vals["runtime.gc_cpu_s"] = median(cpu)
}
