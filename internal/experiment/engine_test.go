package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"aggrate/internal/scenario"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
)

// verifyBothEngines re-verifies an instance's final schedule with the fast
// engine and the naive oracle and demands identical verdicts (error
// presence and message) and margins within 1e-9 relative.
func verifyBothEngines(t *testing.T, inst *Instance, label string) {
	t.Helper()
	fast, _, ferr := inst.VerifySchedule(schedule.EngineFast)
	naive, _, nerr := inst.VerifySchedule(schedule.EngineNaive)
	if (ferr == nil) != (nerr == nil) {
		t.Fatalf("%s: verdict mismatch: fast err=%v naive err=%v", label, ferr, nerr)
	}
	if ferr != nil && ferr.Error() != nerr.Error() {
		t.Fatalf("%s: error text mismatch:\nfast:  %v\nnaive: %v", label, ferr, nerr)
	}
	if math.IsInf(fast, 1) || math.IsInf(naive, 1) {
		if fast != naive {
			t.Fatalf("%s: margin mismatch: fast=%g naive=%g", label, fast, naive)
		}
		return
	}
	if rel := math.Abs(fast-naive) / math.Max(math.Abs(naive), 1e-300); rel > 1e-9 {
		t.Fatalf("%s: margin mismatch: fast=%.17g naive=%.17g (rel %.3g)", label, fast, naive, rel)
	}
}

// engineScenario resolves one of the parity scenarios, including the
// clustered and annulus layouts whose gamma-escalated schedules sit near
// the β threshold.
var engineScenarios = []string{"uniform", "cluster", "annulus"}

// TestEngineMatchesNaive is the deterministic parity sweep of the fuzz
// property: all four strategies × all four power schemes × α ∈ {2.1, 3, 4}
// on every parity scenario must verify identically under both engines.
// Low initial γ keeps the escalation loop honest, so final margins hug the
// threshold from above — the regime where a sloppy interval bound would
// flip a verdict.
func TestEngineMatchesNaive(t *testing.T) {
	for _, scName := range engineScenarios {
		sc, err := scenario.Lookup(scName)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range scheduler.Names() {
			for _, pw := range []string{PowerUniform, PowerMean, PowerLinear, PowerGlobal} {
				for _, alpha := range []float64{2.1, 3, 4} {
					spec := NewSpec(sc, 220, 7)
					spec.Algo = algo
					spec.Power = pw
					spec.SINR.Alpha = alpha
					spec.Gamma = 1 // near-threshold: escalate from too-low γ
					if pw == PowerGlobal {
						spec.Graph = GraphArbitrary
					}
					label := scName + "/" + algo + "/" + pw
					inst, _, err := NewInstance(context.Background(), spec)
					if err != nil {
						// Some near-threshold cells legitimately exhaust the
						// escalation budget; the parity property still applies
						// to the last (infeasible) schedule when we have one.
						if inst == nil || inst.Schedule == nil {
							continue
						}
					}
					verifyBothEngines(t, inst, label)
				}
			}
		}
	}
}

// TestVerifyEngineSpec: the naive engine is selectable per spec, produces
// the same result record, and unknown engines fail fast.
func TestVerifyEngineSpec(t *testing.T) {
	sc := uniformScenario(t)
	fastSpec := NewSpec(sc, 300, 9)
	naiveSpec := fastSpec
	naiveSpec.VerifyEngine = schedule.EngineNaive
	rf := Run(context.Background(), fastSpec)
	rn := Run(context.Background(), naiveSpec)
	if rf.Err != "" || rn.Err != "" {
		t.Fatalf("runs failed: fast=%q naive=%q", rf.Err, rn.Err)
	}
	if rf.Verified != rn.Verified || rf.Colors != rn.Colors {
		t.Fatalf("engines disagree: fast=%+v naive=%+v", rf, rn)
	}
	if rel := math.Abs(rf.Margin-rn.Margin) / rn.Margin; rel > 1e-9 {
		t.Fatalf("margins diverge: %g vs %g", rf.Margin, rn.Margin)
	}
	// The fast run carries engine diagnostics; the naive run must not. The
	// fraction is a true ratio of distinct-pair work: structurally ≤ 1,
	// including across γ-escalation accumulation.
	if rf.Timings.VerifyExactPairsFrac <= 0 || rf.Timings.VerifyExactPairsFrac > 1 {
		t.Fatalf("fast exact_pairs_frac = %g, want (0, 1]", rf.Timings.VerifyExactPairsFrac)
	}
	if rn.Timings.VerifyExactLinks != 0 {
		t.Fatalf("naive run reports engine stats: %+v", rn.Timings)
	}

	bad := fastSpec
	bad.VerifyEngine = "warp"
	if r := Run(context.Background(), bad); r.Err == "" || !strings.Contains(r.Err, "unknown verify engine") {
		t.Fatalf("bad engine accepted: %q", r.Err)
	}
}

// TestGlobalPowerSolveCache: under global power control, re-verifying the
// same schedule must reuse the cached slot solutions — observable as the
// second pass spending no fresh Solve work and returning identical powers.
func TestGlobalPowerSolveCache(t *testing.T) {
	sc := uniformScenario(t)
	spec := NewSpec(sc, 200, 5)
	spec.Power = PowerGlobal
	spec.Graph = GraphArbitrary
	inst, res, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if !res.Verified {
		t.Fatal("instance not verified")
	}
	slot0 := inst.Schedule.Slots[0]
	p1, err := inst.pf(0, slot0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := inst.pf(0, slot0)
	if err != nil {
		t.Fatal(err)
	}
	// Cache hit returns the identical vector, not a re-solved copy.
	if &p1[0] != &p2[0] {
		t.Fatal("per-slot power vector was re-solved instead of cached")
	}
	// And the re-verify path (bench cross-check) agrees across engines.
	verifyBothEngines(t, inst, "global-power")
	if res.Timings.PowerSolveSec <= 0 {
		t.Fatal("PowerSolveSec not measured for global power")
	}
}

// FuzzEngineMatchesNaive fuzzes the parity property over the whole
// pipeline surface: scenario × size × seed × power × strategy × α ×
// initial γ. Whatever schedule the pipeline produces (feasible or not),
// the fast engine must return the naive oracle's verdict and margin.
func FuzzEngineMatchesNaive(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint8(0), uint8(1), uint8(0), uint8(1), false)
	f.Add(uint64(7), uint16(200), uint8(1), uint8(3), uint8(1), uint8(0), true) // cluster, global, lengthclass, α=2.1
	f.Add(uint64(3), uint16(150), uint8(2), uint8(1), uint8(2), uint8(2), true) // annulus near-threshold
	f.Add(uint64(11), uint16(90), uint8(2), uint8(0), uint8(3), uint8(1), true) // annulus, uniform power, naive strategy
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, scPick, pwPick, algoPick, alphaPick uint8, lowGamma bool) {
		names := engineScenarios
		sc, err := scenario.Lookup(names[int(scPick)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		powers := []string{PowerUniform, PowerMean, PowerLinear, PowerGlobal}
		alphas := []float64{2.1, 3, 4, 2}
		spec := NewSpec(sc, 16+int(n)%240, seed)
		spec.Power = powers[int(pwPick)%len(powers)]
		spec.Algo = scheduler.Names()[int(algoPick)%len(scheduler.Names())]
		spec.SINR.Alpha = alphas[int(alphaPick)%len(alphas)]
		if lowGamma {
			spec.Gamma = 1
			spec.MaxGammaRetries = 2
		}
		if spec.Power == PowerGlobal {
			spec.Graph = GraphArbitrary
		}
		inst, _, err := NewInstance(context.Background(), spec)
		if err != nil && (inst == nil || inst.Schedule == nil) {
			t.Skip() // invalid spec or pipeline failure before scheduling
		}
		verifyBothEngines(t, inst, "fuzz")
	})
}

// BenchmarkPipeline times the full pipeline (generate → MST → schedule →
// fast verify) at the paper's working sizes.
func BenchmarkPipeline(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(map[int]string{1000: "n=1e3", 10000: "n=1e4"}[n], func(b *testing.B) {
			b.ReportAllocs()
			sc, err := scenario.Lookup("uniform")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				spec := NewSpec(sc, n, 1)
				if res := Run(context.Background(), spec); res.Err != "" {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkVerifyEngine isolates the verification stage at n=1e4: one
// prebuilt instance, each engine re-verifying its schedule.
func BenchmarkVerifyEngine(b *testing.B) {
	sc, err := scenario.Lookup("uniform")
	if err != nil {
		b.Fatal(err)
	}
	inst, _, err := NewInstance(context.Background(), NewSpec(sc, 10000, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range schedule.Engines() {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := inst.VerifySchedule(engine); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
