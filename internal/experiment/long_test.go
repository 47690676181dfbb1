package experiment

import (
	"context"
	"os"
	"testing"

	"aggrate/internal/scenario"
)

// TestMillionLinkPipeline is the long certified-pipeline check: generate,
// schedule, and SINR-verify n=1e6 uniform links end to end. It is gated on
// AGGRATE_LONG=1 because a full run takes tens of seconds on one core —
// CI's bench-smoke covers the same invariants at n=20k instead.
//
// The hard assertions are correctness (verified schedule, sane stats, and
// the margin pinned bit for bit — it is the one check on the huge-slot
// verify path at full scale); the stage split is logged so regressions in any one stage are visible. The
// verify stage itself must stay under 15s — the sub-15s *total* pipeline is
// tracked in BENCH_pipeline.json and ROADMAP.md, with conflict-graph
// construction (two γ-escalation builds) the remaining dominant cost.
func TestMillionLinkPipeline(t *testing.T) {
	if os.Getenv("AGGRATE_LONG") == "" {
		t.Skip("set AGGRATE_LONG=1 to run the n=1e6 pipeline test")
	}
	sc, err := scenario.Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewSpec(sc, 1_000_000, 1)
	res := Run(context.Background(), spec)
	if res.Err != "" {
		t.Fatalf("pipeline failed: %s", res.Err)
	}
	if !res.Verified {
		t.Fatal("schedule not verified")
	}
	if want := 1.2820527199232403; res.Margin != want {
		t.Errorf("margin = %.17g, want %.17g", res.Margin, want)
	}
	tm := res.Timings
	t.Logf("n=1e6 uniform: total %.2fs (gen %.2f, mst %.2f, build %.2f, filter %.4f, order %.2f, color %.2f, verify %.2f)",
		tm.TotalSec, tm.GenerateSec, tm.MSTSec, tm.BuildSec, tm.BuildFilterSec, tm.OrderSec, tm.ColorSec, tm.VerifySec)
	t.Logf("verify: exact_pairs_frac %.4g, reused_slots %d, refined_cells %d",
		tm.VerifyExactPairsFrac, tm.VerifyReusedSlots, tm.VerifyRefinedCells)
	if tm.VerifySec >= 15 {
		t.Errorf("verify stage took %.2fs, want < 15s", tm.VerifySec)
	}
	if tm.VerifyExactPairsFrac <= 0 || tm.VerifyExactPairsFrac > 1 {
		t.Errorf("exact_pairs_frac = %g, want (0, 1]", tm.VerifyExactPairsFrac)
	}
	// This spec escalates γ once (retries=1 on the pinned seed); the retry's
	// conflict graph must come from the lookahead filter scan, not a second
	// full build — the PR-7 change that removed the duplicated build.
	if res.GammaRetries >= 1 {
		if !tm.BuildReused {
			t.Error("γ-escalation retry was not served by the lookahead filter scan")
		}
		if tm.BuildFilterSec <= 0 || tm.BuildFilterSec >= 0.15*tm.BuildSec {
			t.Errorf("build_filter_sec = %.3fs, want (0, 0.15×build_sec=%.3fs)",
				tm.BuildFilterSec, 0.15*tm.BuildSec)
		}
	}
}
