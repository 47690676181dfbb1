package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks the
// harness against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// selfTestConfig runs a workload down-scaled by 50 for a single job.
func selfTestConfig(t *testing.T, trace bool) config {
	return config{seed: defaultSeed, seconds: 1e-3, trace: trace, scale: 50, tmp: t.TempDir()}
}

// TestMetricsEmitted runs every workload of BENCHMARK.json down-scaled,
// untraced and traced, and checks that each metric the file names is
// emitted with its unit and that the gate passes.
func TestMetricsEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", wl.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			rep, err := execute(w, selfTestConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: gate failed (%d of %d)", wl.Name, trace, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"certify_s", "setup_s", "peak_rss_bytes", "jobs_per_s"} {
					if !(rep.Metrics[name].Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", wl.Name, name, rep.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestGateTrips records each down-scaled workload's outcomes, then checks
// that the gate accepts them as references and trips on a corrupted one.
func TestGateTrips(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		cfg := selfTestConfig(t, false)
		g := &gate{}
		if _, err := w(cfg, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.failed != 0 || len(g.seen) == 0 {
			t.Fatalf("%s: recording run failed %d ops, saw %d outcomes", name, g.failed, len(g.seen))
		}

		cfg.refs = make(map[string]string)
		for label, out := range g.seen {
			cfg.refs[label] = out
		}
		rep, err := execute(w, cfg)
		if err != nil || !rep.Correct {
			t.Fatalf("%s: true references rejected (%v, %d failed)", name, err, rep.Failed)
		}

		for label := range cfg.refs {
			cfg.refs[label] = strings.Replace(cfg.refs[label], "=", "=9", 1)
		}
		rep, err = execute(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: gate passed a wrong reference (%d of %d failed)", name, rep.Failed, rep.Attempted)
		}
	}
}
