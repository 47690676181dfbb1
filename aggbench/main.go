// Command aggbench is the aggrate benchmark. It generates one workload's
// inputs from a seed, drives the pipeline from outside (experiment, the
// algorithmic layers, and the service tier), checks every output against the
// correctness gate, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"certify_s": {"value": 11.9, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 a separate traced run reports the per-layer ones. A host
// stamp line precedes the result. The exit code is non-zero when any output
// fails the gate. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// defaultSeed is the seed whose outputs the pipeline workloads' references
// were recorded at; on other seeds they get the invariant half of the gate.
const defaultSeed = 1

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of aggrate sees; every untraced run of
// every workload reports all of them.
var endToEnd = []metricDef{
	{"certify_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"scenario.gen_s", "s"},
	{"mst.emst_s", "s"},
	{"mst.tree_s", "s"},
	{"mst.alloc_bytes", "bytes"},
	{"conflict.build_s", "s"},
	{"conflict.filter_s", "s"},
	{"conflict.builds", "count"},
	{"conflict.filters", "count"},
	{"conflict.edges", "count"},
	{"conflict.cand_per_edge", "ratio"},
	{"conflict.cells_pruned_frac", "ratio"},
	{"conflict.alloc_bytes", "bytes"},
	{"coloring.order_s", "s"},
	{"coloring.color_s", "s"},
	{"coloring.alloc_bytes", "bytes"},
	{"scheduler.schedule_s", "s"},
	{"power.assign_s", "s"},
	{"power.solve_s", "s"},
	{"power.solves", "count"},
	{"power.solve_pairs", "count"},
	{"schedule.from_coloring_s", "s"},
	{"schedule.verify_s", "s"},
	{"schedule.attempts", "count"},
	{"schedule.reused_slots_frac", "ratio"},
	{"schedule.reused_grids", "count"},
	{"schedule.vcache_bytes", "bytes"},
	{"sinr.exact_pairs_frac", "ratio"},
	{"sinr.exact_links", "count"},
	{"sinr.refined_cells", "count"},
	{"sinr.kernel_ns_per_pair", "ns"},
	{"experiment.deploy_hits", "count"},
	{"experiment.deploy_misses", "count"},
	{"experiment.sched_hits", "count"},
	{"experiment.sched_misses", "count"},
	{"experiment.unattributed_s", "s"},
	{"experiment.traced_certify_s", "s"},
	{"experiment.tracing_overhead_s", "s"},
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.result_hit_frac", "ratio"},
	{"service.instance_hit_frac", "ratio"},
	{"service.rejected", "count"},
	{"service.journal_appends", "count"},
	{"service.journal_bytes", "bytes"},
	{"service.journal_fsyncs", "count"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the recorded references apply at the default")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end ones")
	tmp := flag.String("tmp", ".bench_build/tmp", "directory for the serve workload's temporary journals")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "aggbench: need --workload (%s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, tmp: *tmp, refs: references,
	}
	stamp, _ := json.Marshal(map[string]any{
		"host": hostStamp(), "workload": *wl, "seed": *seed, "seconds": *seconds, "trace": *trace,
	})
	fmt.Println(string(stamp))

	rep, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-32s %.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "failed_frac %.6g (%d of %d operations)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(3)
	}
}

// execute runs one workload and assembles its report: the end-to-end or the
// per-layer metric set, each value with its unit, plus the gate's counts.
func execute(w workload, cfg config) (report, error) {
	g := &gate{refs: cfg.refs}
	vals, err := w(cfg, g)
	if err != nil {
		return report{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := report{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return report{}, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if cfg.scale == 1 && cfg.seed == defaultSeed && g.checked == 0 {
		g.op("references", fmt.Errorf("no outcome of the default seed was compared against a reference"))
	}
	rep.Attempted, rep.Failed = g.attempted, g.failed
	rep.Correct = g.failed == 0 && g.attempted > 0
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
