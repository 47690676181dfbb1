// aggrate loadtest: drive a running `aggrate serve` instance with
// heavy-tailed spec-grid traffic and measure what the serve tier actually
// delivers — throughput, end-to-end latency percentiles, cache-hit rate,
// and how often admission control pushed back. Results land in
// BENCH_serve.json next to the other BENCH_*.json artifacts.
//
// Traffic model: each simulated client (own X-API-Key) submits jobs whose
// grid size is Zipf-distributed over an n ladder — most jobs are small,
// a heavy tail is large — and whose seeds are drawn from a small pool, so
// repeated specs occur and the result cache sees realistic reuse. Rejections
// (429/503) are retried with jittered exponential backoff honoring the
// server's Retry-After header.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aggrate/internal/stats"
)

// ltJob is one submitted job's measured outcome.
type ltJob struct {
	latencySec float64
	completed  int
	cacheHits  int
	status     string
	finishedAt time.Time
}

// ltStats aggregates across clients under one mutex.
type ltStats struct {
	mu        sync.Mutex
	submitted int
	done      []ltJob
	failed    int
	retries   int
	rejected  map[string]int // error code -> count
}

// LoadReport is the BENCH_serve.json shape.
type LoadReport struct {
	Addr        string    `json:"addr"`
	GeneratedAt time.Time `json:"generated_at"`
	DurationSec float64   `json:"duration_sec"`
	Clients     int       `json:"clients"`
	Seed        uint64    `json:"seed"`

	JobsSubmitted int            `json:"jobs_submitted"`
	JobsDone      int            `json:"jobs_done"`
	JobsFailed    int            `json:"jobs_failed"`
	Retries       int            `json:"retries"`
	Rejected      map[string]int `json:"rejected_by_code"`

	SpecsCompleted int     `json:"specs_completed"`
	CacheHits      int     `json:"cache_hits"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	LatencySec           struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Max  float64 `json:"max"`
	} `json:"latency_sec"`

	// Curve is the per-second completion timeline: throughput and cache-hit
	// behavior over the run, not just the final averages.
	Curve []CurvePoint `json:"curve"`

	// Instance-cache telemetry, sampled from the server's /metrics once per
	// second: the deployment-build (gen+EMST+lookahead) cache shared across
	// jobs, as opposed to the per-spec result cache above. Totals are deltas
	// over the run (the counters are cumulative since server start), and the
	// curve shows how the hit rate climbs as the seed pool gets covered.
	InstanceCacheHits    int64            `json:"instance_cache_hits"`
	InstanceCacheMisses  int64            `json:"instance_cache_misses"`
	InstanceCacheHitRate float64          `json:"instance_cache_hit_rate"`
	InstanceCacheCurve   []InstCachePoint `json:"instance_cache_curve,omitempty"`

	// Pre-power schedule-stage cache telemetry, sampled from the same
	// /metrics scrapes: stage builds (ordering+coloring+schedule skeleton)
	// reused across power-scheme variants and γ rungs of one deployment.
	// Run-delta totals, like the instance-cache numbers above.
	SchedCacheHits    int64   `json:"sched_cache_hits"`
	SchedCacheMisses  int64   `json:"sched_cache_misses"`
	SchedCacheHitRate float64 `json:"sched_cache_hit_rate"`
}

// InstCachePoint is one /metrics sample of the instance cache: cumulative
// hit/miss deltas since the run started, the interval's delta hit rate, the
// entry gauge at sample time, and the schedule-stage cache's counter deltas
// riding along from the same scrape.
type InstCachePoint struct {
	T           int     `json:"t"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Entries     int     `json:"entries"`
	SchedHits   int64   `json:"sched_hits"`
	SchedMisses int64   `json:"sched_misses"`
}

// CurvePoint is one second of the timeline.
type CurvePoint struct {
	T         int     `json:"t"`
	JobsDone  int     `json:"jobs_done"`
	Specs     int     `json:"specs"`
	CacheHits int     `json:"cache_hits"`
	HitRate   float64 `json:"hit_rate"`
}

// ltNLadder is the grid-size ladder the Zipf draw indexes into: mostly tiny
// grids, occasionally hundreds of nodes.
var ltNLadder = []int{40, 60, 80, 120, 200, 300, 500}

func cmdLoadtest(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("loadtest", stderr)
	addr := fs.String("addr", "", "base URL of a running server, e.g. http://127.0.0.1:8080 (required)")
	duration := fs.Duration("duration", 20*time.Second, "how long to submit new jobs")
	clients := fs.Int("clients", 4, "concurrent simulated clients (each its own X-API-Key)")
	seed := fs.Uint64("seed", 1, "traffic RNG seed (deterministic per client)")
	seedPool := fs.Int("seed-pool", 16, "distinct experiment seeds drawn per client; smaller = more cache reuse")
	out := fs.String("out", "BENCH_serve.json", "report path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadtest takes no positional arguments, got %q", fs.Args())
	}
	if *addr == "" {
		return fmt.Errorf("--addr is required (a running 'aggrate serve' base URL)")
	}
	if *clients < 1 || *duration <= 0 || *seedPool < 1 {
		return fmt.Errorf("--clients, --duration, and --seed-pool must be positive")
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}

	st := &ltStats{rejected: make(map[string]int)}
	httpc := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	deadline := start.Add(*duration)
	stopSampler := make(chan struct{})
	samples := make(chan []InstCachePoint, 1)
	go ltSampleInstanceCache(httpc, base, start, stopSampler, samples)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ltClient(httpc, base, fmt.Sprintf("lt-%d", c),
				rand.New(rand.NewSource(int64(*seed)+int64(c))), *seedPool, deadline, st)
		}(c)
	}
	wg.Wait()
	close(stopSampler)
	elapsed := time.Since(start).Seconds()

	rep := buildReport(base, st, start, elapsed, *clients, *seed)
	attachInstanceCacheCurve(rep, <-samples)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr,
		"aggrate loadtest: %d submitted, %d done, %d failed, %d retries, %.2f jobs/s, p50=%.3fs p95=%.3fs p99=%.3fs, cache hit rate %.2f -> %s\n",
		rep.JobsSubmitted, rep.JobsDone, rep.JobsFailed, rep.Retries, rep.ThroughputJobsPerSec,
		rep.LatencySec.P50, rep.LatencySec.P95, rep.LatencySec.P99, rep.CacheHitRate, *out)
	return nil
}

// ltClient is one client's submit→poll loop until the deadline.
func ltClient(httpc *http.Client, base, apiKey string, rng *rand.Rand, seedPool int, deadline time.Time, st *ltStats) {
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(ltNLadder)-1))
	verify := true
	for time.Now().Before(deadline) {
		req := map[string]any{
			"scenarios": []string{"uniform"},
			"ns":        []int{ltNLadder[zipf.Uint64()]},
			"seeds":     1 + rng.Intn(2),
			"seed":      1 + uint64(rng.Intn(seedPool)),
			"algos":     []string{"greedy"},
			"verify":    verify,
			"priority":  rng.Intn(3),
		}
		id, submitted := ltSubmit(httpc, base, apiKey, req, rng, deadline, st)
		if !submitted {
			continue
		}
		ltAwait(httpc, base, id, time.Now(), st)
	}
}

// ltSubmit POSTs one job, retrying rejections with jittered exponential
// backoff that honors Retry-After. Returns the job id on acceptance.
func ltSubmit(httpc *http.Client, base, apiKey string, req map[string]any, rng *rand.Rand, deadline time.Time, st *ltStats) (string, bool) {
	backoff := 100 * time.Millisecond
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(req)
		hreq, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", false
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-API-Key", apiKey)
		resp, err := httpc.Do(hreq)
		if err != nil {
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		var payload struct {
			ID   string `json:"id"`
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			st.mu.Lock()
			st.submitted++
			st.mu.Unlock()
			return payload.ID, true
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			st.mu.Lock()
			st.retries++
			code := payload.Code
			if code == "" {
				code = fmt.Sprintf("http_%d", resp.StatusCode)
			}
			st.rejected[code]++
			st.mu.Unlock()
			wait := backoff
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			// Jitter in [0.5, 1.5) de-synchronizes clients that were rejected
			// together; the exponential term still grows on repeated rejection.
			wait = time.Duration(float64(wait) * (0.5 + rng.Float64()))
			if remaining := time.Until(deadline); wait > remaining {
				return "", false
			}
			time.Sleep(wait)
			backoff *= 2
			if backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		default:
			st.mu.Lock()
			st.failed++
			st.mu.Unlock()
			return "", false
		}
	}
	return "", false
}

// ltAwait polls the job until it reaches a terminal state, then records the
// submit→terminal latency.
func ltAwait(httpc *http.Client, base, id string, submitAt time.Time, st *ltStats) {
	for {
		resp, err := httpc.Get(base + "/v1/jobs/" + id + "?results=false")
		if err != nil {
			st.mu.Lock()
			st.failed++
			st.mu.Unlock()
			return
		}
		var payload struct {
			Status    string `json:"status"`
			Completed int    `json:"completed"`
			CacheHits int    `json:"cache_hits"`
		}
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			st.mu.Lock()
			st.failed++
			st.mu.Unlock()
			return
		}
		switch payload.Status {
		case "done", "cancelled", "interrupted":
			st.mu.Lock()
			st.done = append(st.done, ltJob{
				latencySec: time.Since(submitAt).Seconds(),
				completed:  payload.Completed,
				cacheHits:  payload.CacheHits,
				status:     payload.Status,
				finishedAt: time.Now(),
			})
			if payload.Status != "done" {
				st.failed++
			}
			st.mu.Unlock()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func buildReport(addr string, st *ltStats, start time.Time, elapsed float64, clients int, seed uint64) *LoadReport {
	st.mu.Lock()
	defer st.mu.Unlock()
	rep := &LoadReport{
		Addr: addr, GeneratedAt: time.Now().UTC(),
		DurationSec: elapsed, Clients: clients, Seed: seed,
		JobsSubmitted: st.submitted, JobsFailed: st.failed,
		Retries: st.retries, Rejected: st.rejected,
	}
	var lat []float64
	curve := make(map[int]*CurvePoint)
	for _, j := range st.done {
		if j.status == "done" {
			rep.JobsDone++
			lat = append(lat, j.latencySec)
		}
		rep.SpecsCompleted += j.completed
		rep.CacheHits += j.cacheHits
		t := int(j.finishedAt.Sub(start).Seconds())
		cp := curve[t]
		if cp == nil {
			cp = &CurvePoint{T: t}
			curve[t] = cp
		}
		cp.JobsDone++
		cp.Specs += j.completed
		cp.CacheHits += j.cacheHits
	}
	if rep.SpecsCompleted > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.SpecsCompleted)
	}
	if elapsed > 0 {
		rep.ThroughputJobsPerSec = float64(rep.JobsDone) / elapsed
	}
	if len(lat) > 0 {
		rep.LatencySec.Mean = stats.Mean(lat)
		rep.LatencySec.P50 = stats.Percentile(lat, 50)
		rep.LatencySec.P95 = stats.Percentile(lat, 95)
		rep.LatencySec.P99 = stats.Percentile(lat, 99)
		rep.LatencySec.Max = stats.Max(lat)
	}
	ts := make([]int, 0, len(curve))
	for t := range curve {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		cp := curve[t]
		if cp.Specs > 0 {
			cp.HitRate = float64(cp.CacheHits) / float64(cp.Specs)
		}
		rep.Curve = append(rep.Curve, *cp)
	}
	return rep
}

// ltInstScrape is one /metrics reading of the two stage-split caches: the
// instance (deployment) cache counters and entry gauge, and the pre-power
// schedule-stage cache counters.
type ltInstScrape struct {
	hits, misses           int64
	entries                int
	schedHits, schedMisses int64
	ok                     bool
}

// ltScrapeInstanceCache reads the instance-cache and schedule-stage-cache
// counters from one /metrics scrape. A failed scrape or a server without the
// series (a build predating the instance cache) reports ok=false.
func ltScrapeInstanceCache(httpc *http.Client, base string) (s ltInstScrape) {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, found := strings.Cut(line, " ")
		if !found {
			continue
		}
		switch name {
		case "aggrate_instance_cache_hits_total":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.hits, s.ok = v, true
			}
		case "aggrate_instance_cache_misses_total":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.misses, s.ok = v, true
			}
		case "aggrate_instance_cache_entries":
			if v, err := strconv.Atoi(val); err == nil {
				s.entries = v
			}
		case "aggrate_sched_cache_hits_total":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.schedHits = v
			}
		case "aggrate_sched_cache_misses_total":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.schedMisses = v
			}
		}
	}
	return s
}

// ltSampleInstanceCache polls /metrics once per second until stop closes,
// recording instance-cache counter deltas relative to the first scrape (the
// counters are cumulative since server start, and the server may be warm).
// The collected samples are delivered on out exactly once.
func ltSampleInstanceCache(httpc *http.Client, base string, start time.Time, stop <-chan struct{}, out chan<- []InstCachePoint) {
	var pts []InstCachePoint
	var base0 ltInstScrape
	baselined := false
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	sample := func() {
		s := ltScrapeInstanceCache(httpc, base)
		if !s.ok {
			return
		}
		if !baselined {
			base0, baselined = s, true
		}
		pts = append(pts, InstCachePoint{
			T:           int(time.Since(start).Seconds()),
			Hits:        s.hits - base0.hits,
			Misses:      s.misses - base0.misses,
			Entries:     s.entries,
			SchedHits:   s.schedHits - base0.schedHits,
			SchedMisses: s.schedMisses - base0.schedMisses,
		})
	}
	sample() // t=0 baseline
	for {
		select {
		case <-stop:
			sample() // final totals
			out <- pts
			return
		case <-tick.C:
			sample()
		}
	}
}

// attachInstanceCacheCurve folds the sampler's points into the report:
// per-interval delta hit rates on the curve, run totals from the last
// sample. No samples (scrape failures, cache disabled) leaves the fields
// zero and the curve absent.
func attachInstanceCacheCurve(rep *LoadReport, pts []InstCachePoint) {
	if len(pts) == 0 {
		return
	}
	for i := range pts {
		dh, dm := pts[i].Hits, pts[i].Misses
		if i > 0 {
			dh -= pts[i-1].Hits
			dm -= pts[i-1].Misses
		}
		if dh+dm > 0 {
			pts[i].HitRate = float64(dh) / float64(dh+dm)
		}
	}
	last := pts[len(pts)-1]
	rep.InstanceCacheHits = last.Hits
	rep.InstanceCacheMisses = last.Misses
	if total := last.Hits + last.Misses; total > 0 {
		rep.InstanceCacheHitRate = float64(last.Hits) / float64(total)
	}
	rep.SchedCacheHits = last.SchedHits
	rep.SchedCacheMisses = last.SchedMisses
	if total := last.SchedHits + last.SchedMisses; total > 0 {
		rep.SchedCacheHitRate = float64(last.SchedHits) / float64(total)
	}
	rep.InstanceCacheCurve = pts
}
