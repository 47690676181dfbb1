package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggrate/internal/service"
)

// serveClients is the closed loop's width: each client posts a job, streams
// it to done, then posts the next.
const serveClients = 2

// serveSeeds is the pool of instance seeds the jobs draw from. It is fixed,
// so every spec a job can name lies in one space of 3·3·4·2·2 = 144 specs,
// all recorded in the references; the workload seed draws the job lists.
var serveSeeds = []uint64{1, 2, 3, 4}

// serveCells is the job layout of each scenario, one cell per n: the job
// counts 5 : 2 : 1 weight n like a Zipf law (1 : 0.4 : 0.2, exponent ≈ 1.4),
// and job k of a cell takes the k-th (powers, algos) pair and the k-th
// instance seed of the cell's seed sequence, cycling through the pool. At
// n=1000 the fifth job repeats the first job's instance with an overlapping
// subset, so the result cache and the cross-job instance cache both serve
// hits.
var serveCells = []struct {
	n      int
	combos [][2][]string
}{
	{1000, [][2][]string{
		{{"mean"}, {"greedy"}}, {{"linear"}, {"dsatur"}}, {{"mean", "linear"}, {"greedy", "dsatur"}},
		{{"mean"}, {"greedy", "dsatur"}}, {{"mean", "linear"}, {"greedy"}},
	}},
	{4000, [][2][]string{
		{{"mean"}, {"greedy", "dsatur"}}, {{"linear"}, {"greedy", "dsatur"}},
	}},
	{10000, [][2][]string{
		{{"mean"}, {"greedy", "dsatur"}},
	}},
}

// serveJobs builds the job list of one pass: for each scenario ∈ {uniform,
// hotspot, annulus}, the jobs of serveCells, then all 24 jobs shuffled. Each
// cell takes its instance seeds from a permutation of the pool drawn once
// per run and rotated by one every pass, so every four passes each job of
// the layout meets every pool seed. The workload seed draws the permutations
// and each pass's arrival order; the sizes, subsets and, over a cycle, the
// instances are the same on every seed, so runs cost alike.
func serveJobs(cfg config, pass int) []service.JobRequest {
	perms := splitmix(cfg.seed)
	order := splitmix(cfg.seed<<16 ^ uint64(pass))
	var jobs []service.JobRequest
	for _, sc := range []string{"uniform", "hotspot", "annulus"} {
		for _, cell := range serveCells {
			seeds := append([]uint64(nil), serveSeeds...)
			shuffle(perms, len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
			for k, c := range cell.combos {
				jobs = append(jobs, service.JobRequest{
					Scenarios: []string{sc},
					Ns:        []int{cfg.size(cell.n)},
					Seeds:     1,
					Seed:      seeds[(k+pass)%len(seeds)],
					Powers:    c[0],
					Algos:     c[1],
				})
			}
		}
	}
	shuffle(order, len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// shuffle is a Fisher–Yates shuffle driven by r.
func shuffle(r *rng, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

type rng struct{ s uint64 }

func splitmix(seed uint64) *rng { return &rng{seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jobRun is what a client saw of one job.
type jobRun struct {
	latency, submit, queueWait float64
	items                      []service.StreamItem
	err                        error
}

// serverUnderTest is one booted server with its journal directory.
type serverUnderTest struct {
	srv *service.Server
	h   http.Handler
	dir string
}

func bootServer(tmp string) (*serverUnderTest, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{JournalPath: dir + "/journal.ndjson"})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serverUnderTest{srv: srv, h: srv.Handler(), dir: dir}, nil
}

func (s *serverUnderTest) close() {
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// runServe measures passes over the seeded job list, each against a freshly
// booted server, until the run's time is up. certify_s is the median pass
// wall time; job latencies pool over passes. In the traced run every other
// pass also scrapes /metrics for the per-layer counters.
func runServe(cfg config, g *gate) (map[string]float64, error) {
	var setups, passes, tracedPasses, latencies, peaks, submits, waits []float64
	var rts []runtimeCounters
	var scrapes []map[string]float64
	start := time.Now()
	for pass := 0; len(passes) == 0 || (cfg.trace && len(scrapes) == 0) ||
		time.Since(start).Seconds() < cfg.seconds; pass++ {
		t0 := time.Now()
		s, err := bootServer(cfg.tmp)
		if err != nil {
			return nil, err
		}
		jobs := serveJobs(cfg, pass)
		bodies := make([][]byte, len(jobs))
		for i := range jobs {
			if bodies[i], err = json.Marshal(jobs[i]); err != nil {
				s.close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())

		quiesce()
		r0 := readRuntime()
		t0 = time.Now()
		runs := closedLoop(s.h, bodies)
		wall := time.Since(t0).Seconds()
		rt := readRuntime().sub(r0)
		peak, err := peakRSS()
		if err != nil {
			s.close()
			return nil, err
		}
		traced := cfg.trace && pass%2 == 1
		if traced {
			m, err := scrapeMetrics(s.h)
			if err != nil {
				s.close()
				return nil, err
			}
			m["wall"] = wall
			scrapes = append(scrapes, m)
			tracedPasses = append(tracedPasses, wall)
		} else {
			passes = append(passes, wall)
			rts = append(rts, rt)
		}
		s.close()
		peaks = append(peaks, peak)
		fmt.Fprintf(os.Stderr, "pass %d: %.3f s, %d jobs, peak %.0f MiB\n", pass+1, wall, len(runs), peak/(1<<20))
		for _, jr := range runs {
			if jr.err == nil { // a failed job has no latency; the gate counts it
				latencies = append(latencies, jr.latency)
				submits = append(submits, jr.submit)
				waits = append(waits, jr.queueWait)
			}
		}
		checkPass(g, runs)
	}
	if !cfg.trace {
		return jobMetrics(passes, latencies, peaks, median(setups)), nil
	}
	return serveLayers(scrapes, passes, tracedPasses, submits, waits, rts), nil
}

// closedLoop drives the handler with serveClients clients until every job
// of the list has run.
func closedLoop(h http.Handler, bodies [][]byte) []jobRun {
	runs := make([]jobRun, len(bodies))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < min(serveClients, runtime.NumCPU()); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				runs[i] = runJob(h, bodies[i])
			}
		}()
	}
	wg.Wait()
	return runs
}

// runJob posts one job and streams it to done. Latency runs from the POST
// to the last streamed result; the queue wait from the POST's return to the
// first streamed result.
func runJob(h http.Handler, body []byte) jobRun {
	var jr jobRun
	t0 := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	submitted := time.Now()
	jr.submit = submitted.Sub(t0).Seconds()
	if rec.Code != http.StatusAccepted {
		jr.err = fmt.Errorf("POST /v1/jobs: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		return jr
	}
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		jr.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return jr
	}
	sw := &streamWriter{header: http.Header{}}
	h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil))
	if sw.err != nil {
		jr.err = sw.err
		return jr
	}
	if sw.done == nil || sw.done.Status != service.StatusDone || sw.done.Completed != sw.done.Total {
		jr.err = fmt.Errorf("job %s did not finish: %+v", st.ID, sw.done)
		return jr
	}
	jr.items = sw.items
	jr.latency = sw.last.Sub(t0).Seconds()
	jr.queueWait = sw.first.Sub(submitted).Seconds()
	return jr
}

// streamWriter is the ResponseWriter a client streams a job through: it
// decodes the NDJSON lines as the handler flushes them and timestamps the
// first and last streamed result.
type streamWriter struct {
	header      http.Header
	buf         []byte
	items       []service.StreamItem
	first, last time.Time
	done        *streamDone
	err         error
}

type streamDone struct {
	Done      bool   `json:"done"`
	Status    string `json:"status"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
}

func (w *streamWriter) Header() http.Header { return w.header }
func (w *streamWriter) WriteHeader(int)     {}
func (w *streamWriter) Flush()              {}

func (w *streamWriter) Write(p []byte) (int, error) {
	now := time.Now()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := w.buf[:i]
		w.buf = w.buf[i+1:]
		switch {
		case bytes.Contains(line, []byte(`"spec_key"`)):
			var it service.StreamItem
			if err := json.Unmarshal(line, &it); err != nil {
				w.err = err
				continue
			}
			if w.first.IsZero() {
				w.first = now
			}
			w.last = now
			w.items = append(w.items, it)
		case bytes.Contains(line, []byte(`"done"`)):
			w.done = &streamDone{}
			if err := json.Unmarshal(line, w.done); err != nil {
				w.err = err
			}
		}
	}
}

// checkPass gates one pass: every job accepted and done, and every streamed
// result SINR-verified with margin ≥ 1, identical to every earlier result of
// its spec, and equal to the spec's reference.
func checkPass(g *gate, runs []jobRun) {
	for _, jr := range runs {
		err := jr.err
		for _, it := range jr.items {
			if err != nil {
				break
			}
			if err = checkResult(it.Result); err == nil {
				err = g.outcome(resultLabel(it.Result),
					outcomeString(it.Result.Colors, it.Result.GammaUsed, it.Result.Margin))
			}
		}
		g.op("serve-mixed job", err)
	}
}

// scrapeMetrics reads the server's /metrics exposition into a map from
// series (name plus labels) to value.
func scrapeMetrics(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", rec.Code)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// serveLayers reduces the traced passes' scrapes to the per-layer metrics
// (medians over traced passes). The pipeline's stage spans come from the
// server's aggrate_stage_seconds sums; layers the server does not split out
// read 0.
func serveLayers(scrapes []map[string]float64, passes, traced, submits, waits []float64, rts []runtimeCounters) map[string]float64 {
	med := func(f func(m map[string]float64) float64) float64 {
		xs := make([]float64, len(scrapes))
		for i, m := range scrapes {
			xs[i] = f(m)
		}
		return median(xs)
	}
	series := func(name string) float64 { return med(func(m map[string]float64) float64 { return m[name] }) }
	sum := func(prefix string) func(m map[string]float64) float64 {
		return func(m map[string]float64) float64 {
			var s float64
			for k, v := range m {
				if strings.HasPrefix(k, prefix) {
					s += v
				}
			}
			return s
		}
	}
	stage := func(name string) string { return `aggrate_stage_seconds_sum{stage="` + name + `"}` }
	frac := func(a, b string) float64 {
		return med(func(m map[string]float64) float64 {
			if m[a]+m[b] == 0 {
				return 0
			}
			return m[a] / (m[a] + m[b])
		})
	}
	stages := []string{"gen", "mst", "build", "order", "color", "verify"}
	vals := zeroLayers()
	for k, v := range map[string]float64{
		"scenario.gen_s":                series(stage("gen")),
		"mst.emst_s":                    series(stage("mst")),
		"conflict.build_s":              series(stage("build")),
		"coloring.order_s":              series(stage("order")),
		"coloring.color_s":              series(stage("color")),
		"schedule.verify_s":             series(stage("verify")),
		"experiment.deploy_hits":        series("aggrate_instance_cache_hits_total"),
		"experiment.deploy_misses":      series("aggrate_instance_cache_misses_total"),
		"experiment.sched_hits":         series("aggrate_sched_cache_hits_total"),
		"experiment.sched_misses":       series("aggrate_sched_cache_misses_total"),
		"experiment.traced_certify_s":   median(traced),
		"experiment.tracing_overhead_s": median(traced) - median(passes),
		// The server's stage spans run on GOMAXPROCS workers; what their
		// per-worker share leaves of the pass wall time is unattributed.
		"experiment.unattributed_s": med(func(m map[string]float64) float64 {
			var busy float64
			for _, st := range stages {
				busy += m[stage(st)]
			}
			return m["wall"] - busy/float64(runtime.GOMAXPROCS(0))
		}),
		"service.submit_s":     median(submits),
		"service.queue_wait_s": median(waits),
		"service.result_hit_frac": frac(`aggrate_specs_completed_total{source="cache"}`,
			`aggrate_specs_completed_total{source="computed"}`),
		"service.instance_hit_frac": frac("aggrate_instance_cache_hits_total", "aggrate_instance_cache_misses_total"),
		"service.rejected":          med(sum("aggrate_admission_rejected_total")),
		"service.journal_appends":   series("aggrate_journal_appends_total"),
		"service.journal_bytes":     series("aggrate_journal_bytes_total"),
		"service.journal_fsyncs":    series("aggrate_journal_fsyncs_total"),
		"sinr.kernel_ns_per_pair":   kernelNsPerPair(),
	} {
		vals[k] = v
	}
	addRuntimeMetrics(vals, rts)
	return vals
}
