package experiments

import (
	"testing"

	"dilu/internal/sim"
	"dilu/internal/workload"
)

// TestGrayFailureMitigationRestoresAttainment pins the driver's
// acceptance property at the golden scale: the adversarial schedule
// destroys admitted-traffic p99 attainment, and turning the mitigations
// on (same seed, same schedule) restores it while the per-cause columns
// attribute the work to hedges and quarantine migrations.
func TestGrayFailureMitigationRestoresAttainment(t *testing.T) {
	rep := GrayFailure(testOpts())
	if rep.SLO == nil {
		t.Fatal("gray_failure must attach an SLO summary")
	}
	agg := rep.Table("Gray failure: admitted-traffic SLO attainment by arm (same seed, same schedule)")
	if agg == nil || len(agg.Rows) != 3 {
		t.Fatal("aggregate table wrong")
	}
	p99 := map[string]float64{}
	attain := map[string]float64{}
	for _, row := range agg.Rows {
		p99[row[0]] = gwCell(t, row, 2)
		attain[row[0]] = gwCell(t, row, 3)
	}
	if attain["fault-free"] != 100 {
		t.Fatalf("fault-free arm misses p99 attainment: %.1f%%", attain["fault-free"])
	}
	if attain["faults"] >= attain["fault-free"] {
		t.Fatalf("fault schedule did not degrade attainment: %.1f%%", attain["faults"])
	}
	if attain["faults+mitigation"] <= attain["faults"] {
		t.Fatalf("mitigations do not restore p99 attainment: %.1f%% vs %.1f%% unmitigated",
			attain["faults+mitigation"], attain["faults"])
	}
	if p99["faults+mitigation"] >= p99["faults"] {
		t.Fatalf("mitigated p99 %.1fms not below unmitigated %.1fms",
			p99["faults+mitigation"], p99["faults"])
	}
	// Per-cause attribution: the mitigated run must have actually done
	// something — speculative copies won races and the health monitor
	// ejected the flaky capacity (the migrations rode the drain path).
	res := rep.SLO.Resilience
	if res.SlowEvents == 0 || res.ErrorEvents == 0 {
		t.Fatalf("resilience block missing fault events: %+v", res)
	}
	if res.HedgeWins == 0 {
		t.Fatalf("no hedge wins under the adversarial schedule: %+v", res)
	}
	if res.Quarantines == 0 || res.QuarantineMigrations == 0 {
		t.Fatalf("health monitor never quarantined the flaky GPUs: %+v", res)
	}
}

// TestStragglerTailHedgeBeatsTimeoutOnly pins the tail-at-scale result:
// with the same straggler schedule, hedged dispatch cuts the p95 tail
// and lifts goodput over what timeout/retry alone achieves, and wins
// enough races to justify its duplicate work.
func TestStragglerTailHedgeBeatsTimeoutOnly(t *testing.T) {
	rep := StragglerTail(testOpts())
	if rep.SLO == nil {
		t.Fatal("straggler_tail must attach an SLO summary")
	}
	agg := rep.Table("Straggler tail: per-arm attainment (same straggler schedule)")
	if agg == nil || len(agg.Rows) != 2 {
		t.Fatal("aggregate table wrong")
	}
	p95 := map[string]float64{}
	p99 := map[string]float64{}
	goodput := map[string]float64{}
	hedgeWins := map[string]float64{}
	for _, row := range agg.Rows {
		p95[row[0]] = gwCell(t, row, 2)
		p99[row[0]] = gwCell(t, row, 3)
		goodput[row[0]] = gwCell(t, row, 4)
		hedgeWins[row[0]] = gwCell(t, row, 8)
	}
	if p95["timeout+hedge"] >= p95["timeout-only"] {
		t.Fatalf("hedging does not cut the tail: p95 %.1fms vs %.1fms timeout-only",
			p95["timeout+hedge"], p95["timeout-only"])
	}
	if p99["timeout+hedge"] > p99["timeout-only"] {
		t.Fatalf("hedging worsens p99: %.1fms vs %.1fms timeout-only",
			p99["timeout+hedge"], p99["timeout-only"])
	}
	if goodput["timeout+hedge"] <= goodput["timeout-only"] {
		t.Fatalf("hedging does not lift goodput: %.1f vs %.1f rps",
			goodput["timeout+hedge"], goodput["timeout-only"])
	}
	if hedgeWins["timeout-only"] != 0 {
		t.Fatal("timeout-only arm reports hedge wins")
	}
	if hedgeWins["timeout+hedge"] <= 0 {
		t.Fatal("hedge arm never won a race")
	}
	if rep.SLO.Resilience.Hedges == 0 || rep.SLO.Resilience.HedgeWins == 0 {
		t.Fatalf("resilience block missing hedge attribution: %+v", rep.SLO.Resilience)
	}
}

// TestFaultDriversDeterministic extends the reproducibility contract to
// the gray-failure drivers: same (seed, scale) → byte-identical reports.
func TestFaultDriversDeterministic(t *testing.T) {
	for _, id := range []string{"gray_failure", "straggler_tail"} {
		d, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		a := d.Run(testOpts()).JSON()
		b := d.Run(testOpts()).JSON()
		if a != b {
			t.Fatalf("%s: report not deterministic", id)
		}
	}
}

// TestDisturbanceReplayShape exercises the -churn/-faults CLI entry
// point: an external schedule of each kind replays against the serving
// mix and the report carries both lifecycle and resilience fallout.
func TestDisturbanceReplayShape(t *testing.T) {
	churn := []workload.ChurnEvent{
		{At: 2 * sim.Second, Kind: workload.ChurnFail, Node: 1},
	}
	faults := []workload.FaultEvent{
		{At: 1 * sim.Second, Kind: workload.FaultSlow, Node: 0, GPU: 0, Factor: 4},
		{At: 3 * sim.Second, Kind: workload.FaultError, Node: 2, GPU: -1},
		{At: 6 * sim.Second, Kind: workload.FaultSlow, Node: 0, GPU: 0, Factor: 1},
	}
	rep := DisturbanceReplayOn(testOpts(), churn, faults)
	if rep.SLO == nil {
		t.Fatal("disturbance_replay must attach an SLO summary")
	}
	agg := rep.Table("Disturbance replay: SLO accounting and lifecycle fallout")
	if agg == nil || len(agg.Rows) != 1 {
		t.Fatal("aggregate table wrong")
	}
	row := agg.Rows[0]
	if gwCell(t, row, 4) != 1 { // failures
		t.Fatalf("churn failure not replayed: %v", row)
	}
	if gwCell(t, row, 6) != 2 || gwCell(t, row, 7) != 1 { // slow, error events
		t.Fatalf("fault events not replayed: %v", row)
	}
	if res := rep.SLO.Resilience; res.SlowEvents != 2 || res.ErrorEvents != 1 {
		t.Fatalf("resilience block does not count the replayed faults: %+v", res)
	}
}
