package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale divides every instance size; the self-test runs the workloads
	// down-scaled, the benchmark at scale 1.
	scale int
	tmp   string
	// refs are the outcomes the gate expects, keyed by spec label.
	refs map[string]string
}

// size returns n down-scaled by the config's scale, never below 64.
func (c config) size(n int) int {
	return max(n/c.scale, 64)
}

// gate is the correctness gate: it counts operations attempted and failed,
// and checks every outcome against the earlier outcomes of the same spec and
// against the reference recorded for it.
type gate struct {
	refs      map[string]string
	seen      map[string]string
	checked   int // outcomes compared against a reference
	attempted int
	failed    int
}

// op counts one operation; err, if any, fails it.
func (g *gate) op(label string, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		fmt.Fprintf(os.Stderr, "gate: %s: %v\n", label, err)
	}
}

// outcome checks a spec's canonical outcome against every earlier outcome of
// the spec and against its reference, when one is recorded.
func (g *gate) outcome(label, out string) error {
	if g.seen == nil {
		g.seen = make(map[string]string)
	}
	if prev, ok := g.seen[label]; ok && prev != out {
		return fmt.Errorf("outcome %q differs from an earlier run's %q", out, prev)
	}
	g.seen[label] = out
	want, ok := g.refs[label]
	if !ok {
		return nil
	}
	g.checked++
	if out != want {
		return fmt.Errorf("outcome %q, reference %q", out, want)
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeSetup runs f at least three times and until 0.3 s have passed (at most
// 200 times), returning the median duration in seconds.
func timeSetup(f func()) float64 {
	var ds []float64
	var total float64
	for len(ds) < 3 || (total < 0.3 && len(ds) < 200) {
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		ds = append(ds, d)
		total += d
	}
	return median(ds)
}

// quiesce collects garbage, returns freed memory to the OS, and resets the
// process's peak resident set, so the next peakRSS reading covers only what
// runs after it.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "aggbench: cannot reset peak RSS (%v); peak_rss_bytes may include earlier work\n", err)
	}
}

// peakRSS returns the process's peak resident set in bytes since the last
// quiesce (VmHWM).
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeCounters is a snapshot of the Go runtime's cumulative allocation
// and GC counters.
type runtimeCounters struct {
	allocBytes, gcCycles, gcCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{val(0), val(1), val(2)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// allocBytes returns the bytes allocated by the process so far.
func allocBytes() float64 { return readRuntime().allocBytes }

// hostStamp describes the machine and the source the numbers came from.
func hostStamp() map[string]any {
	commit, dirty := gitState()
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState returns the commit of the working directory's checkout and
// whether it has uncommitted changes; "none" when it is not a git checkout.
// Git is kept from searching above the working directory.
func gitState() (string, bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "none", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil {
		return "none", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return commit, err != nil || status != ""
}
