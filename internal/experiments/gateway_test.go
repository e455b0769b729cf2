package experiments

import (
	"strconv"
	"testing"
)

// cell parses one numeric table cell.
func gwCell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", row[i], err)
	}
	return v
}

// TestOverloadShedTradeoff pins the driver's acceptance property: under
// 2× capacity demand the deadline-shedding policy beats admit-all on
// p99 SLO attainment for admitted traffic, while the per-tenant ledger
// reports the shed counts the goodput was bought with.
func TestOverloadShedTradeoff(t *testing.T) {
	rep := OverloadShed(testOpts())
	if rep.SLO == nil {
		t.Fatal("overload_shed must attach an SLO summary")
	}
	agg := rep.Table("Overload: admitted-traffic SLO attainment")
	if agg == nil || len(agg.Rows) != 3 {
		t.Fatal("aggregate table wrong")
	}
	attain := map[string]float64{}
	shedPct := map[string]float64{}
	for _, row := range agg.Rows {
		attain[row[0]] = gwCell(t, row, 6)
		shedPct[row[0]] = gwCell(t, row, 2)
	}
	if attain["deadline-shed"] <= attain["admit-all"] {
		t.Fatalf("shedding does not beat admit-all on p99 attainment: %.1f%% vs %.1f%%",
			attain["deadline-shed"], attain["admit-all"])
	}
	if shedPct["admit-all"] != 0 {
		t.Fatalf("admit-all shed %.1f%% of traffic", shedPct["admit-all"])
	}
	if shedPct["deadline-shed"] <= 0 {
		t.Fatal("deadline-shed shed nothing under 2× overload")
	}
	// Per-tenant ledger: 3 policies × 3 tenants, with shed counts
	// reported for every tenant under the shedding policies.
	per := rep.Table("Overload: per-tenant admission ledger")
	if per == nil || len(per.Rows) != 9 {
		t.Fatal("per-tenant table wrong")
	}
	for _, row := range per.Rows {
		if row[0] == "deadline-shed" && gwCell(t, row, 4) <= 0 {
			t.Fatalf("tenant %s: no shed count reported under deadline-shed", row[1])
		}
	}
	// The manifest-facing gateway block carries the same per-tenant shed
	// accounting for the policy run the report pins.
	g := rep.SLO.Gateway
	if g.Policy != "deadline-shed" || g.Shed == 0 || len(g.Tenants) != 3 {
		t.Fatalf("gateway block %+v", g)
	}
}

// TestTenantFairnessConcentratesShedding pins the DRF property at the
// driver level: fair-share sheds only the flooding head tenant, and the
// tail tenants' admitted counts match their admit-all counts exactly.
func TestTenantFairnessConcentratesShedding(t *testing.T) {
	rep := TenantFairness(testOpts())
	if rep.SLO == nil {
		t.Fatal("tenant_fairness must attach an SLO summary")
	}
	per := rep.Table("Fairness: per-tenant admission ledger")
	if per == nil || len(per.Rows) != 8 { // 2 policies × 4 tenants
		t.Fatal("per-tenant table wrong")
	}
	type ledger struct{ submitted, admitted, shed float64 }
	rows := map[string]map[string]ledger{}
	for _, row := range per.Rows {
		pol, tenant := row[0], row[1]
		if rows[pol] == nil {
			rows[pol] = map[string]ledger{}
		}
		rows[pol][tenant] = ledger{gwCell(t, row, 2), gwCell(t, row, 3), gwCell(t, row, 4)}
	}
	fair, all := rows["fair-share"], rows["admit-all"]
	if fair["tenant-00"].shed <= 0 {
		t.Fatal("fair-share did not shed the flooding tenant")
	}
	for _, tenant := range []string{"tenant-01", "tenant-02", "tenant-03"} {
		if fair[tenant].shed != 0 {
			t.Fatalf("%s: fair-share shed %v tail requests", tenant, fair[tenant].shed)
		}
		if fair[tenant].admitted != all[tenant].admitted {
			t.Fatalf("%s: tail admission perturbed: %v vs %v admit-all",
				tenant, fair[tenant].admitted, all[tenant].admitted)
		}
	}
	// Both policies face byte-identical offered load.
	for tenant, l := range all {
		if f := fair[tenant]; f.submitted != l.submitted {
			t.Fatalf("%s: offered load differs across policies: %v vs %v", tenant, f.submitted, l.submitted)
		}
	}
}

// TestGatewayDriversDeterministic extends the reproducibility contract
// to the gateway drivers: same (seed, scale) → byte-identical reports.
func TestGatewayDriversDeterministic(t *testing.T) {
	for _, id := range []string{"overload_shed", "tenant_fairness"} {
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
