package experiments

import (
	"strconv"
	"strings"
	"testing"

	"dilu/internal/report"
	"dilu/internal/sim"
)

// quick options keep these integration tests fast while exercising the
// full driver structure.
func testOpts() Options { return Options{Scale: 0.1, Seed: 1} }

// skipSlowTier skips the test under `go test -short` when any of the
// named drivers is in the slow cost tier. Gating through the registry
// keeps the short suite in sync with driver metadata: promoting a driver
// to TierSlow automatically pulls its tests out of the short tier.
func skipSlowTier(t *testing.T, ids ...string) {
	t.Helper()
	if !testing.Short() {
		return
	}
	for _, id := range ids {
		d, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if d.Tier == TierSlow {
			t.Skipf("skipping in -short mode: driver %s is %s tier", id, d.Tier)
		}
	}
}

func TestEveryDriverDeclaresATier(t *testing.T) {
	counts := map[Tier]int{}
	for _, d := range All() {
		if !d.Tier.Valid() {
			t.Fatalf("driver %s has invalid tier %q", d.ID, d.Tier)
		}
		counts[d.Tier]++
	}
	for _, tier := range Tiers() {
		if counts[tier] == 0 {
			t.Fatalf("no driver declares tier %s — registry metadata degenerate", tier)
		}
	}
	if got := len(ByTier(Tiers()...)); got != len(All()) {
		t.Fatalf("ByTier(all tiers) = %d drivers, want %d", got, len(All()))
	}
	quick := ByTier(TierQuick)
	for _, d := range quick {
		if d.Tier != TierQuick {
			t.Fatalf("ByTier(quick) returned %s driver %s", d.Tier, d.ID)
		}
	}
}

// TestEveryDriverNamesItsAim is the driver census: each driver names
// one of the four aims, a figure or table driver (and only one) is a
// paper driver, and each extra measures one of the other three.
func TestEveryDriverNamesItsAim(t *testing.T) {
	want := map[Aim]int{AimPaper: 17, AimPerformance: 2, AimCorrectness: 11, AimObservability: 4}
	counts := map[Aim]int{}
	for _, d := range All() {
		if _, ok := want[d.Aim]; !ok {
			t.Fatalf("driver %s has invalid aim %q", d.ID, d.Aim)
		}
		figure := !strings.HasSuffix(d.Paper, "(extra)") &&
			(strings.HasPrefix(d.ID, "figure") || strings.HasPrefix(d.ID, "table"))
		if figure != (d.Aim == AimPaper) {
			t.Fatalf("driver %s (%s) has aim %s", d.ID, d.Paper, d.Aim)
		}
		counts[d.Aim]++
	}
	for a, n := range want {
		if counts[a] != n {
			t.Fatalf("%d %s drivers, want %d", counts[a], a, n)
		}
	}
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	if len(all) != 34 {
		t.Fatalf("registry has %d drivers, want 34", len(all))
	}
	want := []string{"figure2", "figure2cd", "table2", "figure4", "figure7",
		"figure8", "figure9", "figure10", "figure11", "figure12", "table3",
		"figure13", "figure14", "figure15", "figure16", "figure17", "figure18",
		"ablation-controller", "slo_sweep", "trace_replay", "tenant_mix",
		"hyperscale", "hyperscale_max", "hetero_mix", "churn_recovery", "rolling_drain",
		"overload_shed", "tenant_fairness", "gray_failure", "straggler_tail",
		"coldstart_stages", "prewarm_policy",
		"llm_continuous_batch", "llm_kvcache_pressure"}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Run == nil || all[i].Paper == "" {
			t.Fatalf("driver %s incomplete", id)
		}
	}
	if _, err := ByID("figure7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("zzz"); err == nil {
		t.Fatal("bogus id accepted")
	}
}

func TestOptionsClamping(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	o = Options{Scale: 0.01}.withDefaults()
	if o.Scale != 0.1 {
		t.Fatalf("scale clamp: %v", o.Scale)
	}
	if d := (Options{Scale: 0.1}).withDefaults().dur(20 * 1e6); d < 10*1e6 {
		t.Fatalf("duration floor: %v", d)
	}
}

func cell(t *testing.T, tb *report.Table, rowKey string, col int) float64 {
	t.Helper()
	row := tb.FindRow(rowKey)
	if row == nil {
		t.Fatalf("row %q missing in %q", rowKey, tb.Caption)
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", row[col], err)
	}
	return v
}

func TestTable2Shape(t *testing.T) {
	rep := Table2(testOpts())
	tb := rep.Table("Table 2.")
	if tb == nil {
		t.Fatal("missing table")
	}
	// Traversal must be 60 for every model; Dilu strictly below GPUlet's 16.
	for col := 1; col <= 4; col++ {
		if v := cell(t, tb, "Traversal", col); v != 60 {
			t.Fatalf("traversal col %d = %v", col, v)
		}
		if v := cell(t, tb, "GPUlet", col); v != 16 {
			t.Fatalf("gpulet col %d = %v", col, v)
		}
		dilu := cell(t, tb, "Dilu", col)
		if dilu >= 16 {
			t.Fatalf("Dilu col %d = %v, want < 16", col, dilu)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	rep := Figure4(testOpts())
	tb := rep.Table("Figure 4.")
	if tb == nil || len(tb.Rows) != 4 {
		t.Fatal("star table wrong")
	}
	for _, row := range tb.Rows {
		smr, _ := strconv.ParseFloat(row[2], 64)
		if smr <= 0.05 || smr > 1 {
			t.Fatalf("%s: star SMR %v out of range", row[0], smr)
		}
		blocked, _ := strconv.ParseFloat(row[5], 64)
		if blocked == 0 {
			t.Fatalf("%s: no blocked cells — SLO never binds", row[0])
		}
	}
	// One ridge table per model.
	if len(rep.Tables) != 5 {
		t.Fatalf("tables = %d, want 1 star + 4 ridges", len(rep.Tables))
	}
}

func TestFigure9Shape(t *testing.T) {
	rep := Figure9(testOpts())
	tb := rep.Table("Figure 9.")
	if tb == nil || len(tb.Rows) != 4 {
		t.Fatal("figure9 table wrong")
	}
	for _, row := range tb.Rows {
		dilu, _ := strconv.ParseFloat(row[1], 64)
		mpsr, _ := strconv.ParseFloat(row[3], 64)
		tgs, _ := strconv.ParseFloat(row[4], 64)
		if dilu < 1.4 {
			t.Fatalf("%s: Dilu per-GPU aggregate %v below collocation win", row[0], dilu)
		}
		if dilu <= mpsr {
			t.Fatalf("%s: Dilu %v should beat MPS-r %v", row[0], dilu, mpsr)
		}
		if dilu <= tgs {
			t.Fatalf("%s: Dilu %v should beat TGS %v", row[0], dilu, tgs)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	rep := Figure17(testOpts())
	tb := rep.Table("Figure 17.")
	if tb == nil {
		t.Fatal("missing table")
	}
	exc := cell(t, tb, "Exclusive", 4) // GPU-hours
	inf := cell(t, tb, "INFless+-l", 4)
	dil := cell(t, tb, "Dilu", 4)
	if !(dil < inf && inf < exc) {
		t.Fatalf("cost ordering broken: Dilu %v, INFless %v, Exclusive %v", dil, inf, exc)
	}
	if frag := cell(t, tb, "Exclusive", 2); frag < cell(t, tb, "Dilu", 2) {
		t.Fatal("Exclusive must have the highest SM fragmentation")
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d", len(rep.Series))
	}
}

func TestHyperscaleShape(t *testing.T) {
	skipSlowTier(t, "hyperscale")
	rep := Hyperscale(testOpts())
	tb := rep.Table("Hyperscale.")
	if tb == nil {
		t.Fatal("missing table")
	}
	// The §5.5 cost ordering must survive the ×10 cluster.
	exc := cell(t, tb, "Exclusive", 5) // GPU-hours
	inf := cell(t, tb, "INFless+-l", 5)
	dil := cell(t, tb, "Dilu", 5)
	if !(dil < inf && inf < exc) {
		t.Fatalf("cost ordering broken: Dilu %v, INFless %v, Exclusive %v", dil, inf, exc)
	}
	// Dilu must place every request at this density (capacity is ample
	// once collocation works); Exclusive is allowed to shed load.
	if placed := cell(t, tb, "Dilu", 1); placed < cell(t, tb, "Exclusive", 1) {
		t.Fatalf("Dilu placed %v requests, fewer than Exclusive", placed)
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d", len(rep.Series))
	}
}

func TestHyperscaleBatchAllSchedulers(t *testing.T) {
	placed := HyperscaleScheduleBatch(1000, 400, 1)
	for _, name := range []string{"Exclusive", "INFless+-l", "Dilu"} {
		if placed[name] != 400 {
			t.Fatalf("%s placed %d / 400 on a 4,000-GPU cluster", name, placed[name])
		}
	}
}

func TestFigure18OversubscriptionDiminishes(t *testing.T) {
	skipSlowTier(t, "figure18")
	rep := Figure18(testOpts())
	a := rep.Table("Figure 18(a).")
	if a == nil {
		t.Fatal("missing 18(a)")
	}
	g100 := cell(t, a, "1.00", 1)
	g150 := cell(t, a, "1.50", 1)
	g250 := cell(t, a, "2.50", 1)
	if g150 >= g100 {
		t.Fatalf("γ=1.5 (%v GPUs) should beat γ=1.0 (%v)", g150, g100)
	}
	// Diminishing returns: the 1.5→2.5 gain is smaller than 1.0→1.5.
	if g150-g250 >= g100-g150 {
		t.Fatalf("no diminishing returns: 1.0→1.5 saves %v, 1.5→2.5 saves %v",
			g100-g150, g150-g250)
	}
}

func TestFigure18MaxTokensUShape(t *testing.T) {
	skipSlowTier(t, "figure18")
	rep := Figure18(testOpts())
	b := rep.Table("Figure 18(b).")
	if b == nil {
		t.Fatal("missing 18(b)")
	}
	low := cell(t, b, "0.25", 2) // SVR at starving tokens
	mid := cell(t, b, "1.00", 2)
	if low <= mid {
		t.Fatalf("conservative MaxTokens should starve: svr(0.25)=%v svr(1)=%v", low, mid)
	}
	trLow := cell(t, b, "0.25", 3)
	trMid := cell(t, b, "1.00", 3)
	if trLow >= trMid {
		t.Fatalf("training should also suffer at 0.25×: %v vs %v", trLow, trMid)
	}
}

func TestFigure2Anchors(t *testing.T) {
	rep := Figure2(testOpts())
	idle := rep.Table("Figure 2(a/b).")
	if idle == nil {
		t.Fatal("missing idling table")
	}
	gpt := idle.FindRow("GPT2-large 4-worker DDP")
	if gpt == nil {
		t.Fatal("missing GPT2 row")
	}
	frac, _ := strconv.ParseFloat(gpt[2], 64)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("GPT2 DDP idle fraction %v, want ~0.4 (paper: >40%%)", frac)
	}
	ka := rep.Table("Figure 2(a). Keep-alive")
	if ka == nil {
		t.Fatal("missing keep-alive table")
	}
	waste := cell(t, ka, "time-dimension waste", 1)
	if waste < 0.7 {
		t.Fatalf("keep-alive waste %v, want >0.7 (paper: >95%%)", waste)
	}
}

func TestFigure11OverheadNegligible(t *testing.T) {
	rep := Figure11(testOpts())
	a := rep.Table("Figure 11(a).")
	for _, row := range a.Rows {
		norm, _ := strconv.ParseFloat(row[3], 64)
		if norm < 0.97 || norm > 1.03 {
			t.Fatalf("%s: managed training overhead %v, want ~1.0", row[0], norm)
		}
	}
	b := rep.Table("Figure 11(b).")
	for _, row := range b.Rows {
		norm, _ := strconv.ParseFloat(row[3], 64)
		if norm < 0.9 || norm > 1.15 {
			t.Fatalf("n=%s: managed inference latency ratio %v", row[0], norm)
		}
	}
}

func TestSystemForVariants(t *testing.T) {
	for _, label := range []string{"Dilu", "Dilu-RC", "Dilu-WA", "Dilu-VS",
		"Exclusive", "INFless+", "INFless+-l", "INFless+-r", "FaST-GS+"} {
		sys, err := clusterSystem(label, 1, 2, Options{Seed: 1}, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sys == nil {
			t.Fatalf("%s: nil system", label)
		}
	}
	if _, err := clusterSystem("bogus", 1, 2, Options{Seed: 1}, 0); err == nil {
		t.Fatal("bogus label accepted")
	}
}

func TestScheduleBatchPlacesEverything(t *testing.T) {
	if placed := ScheduleBatch(400, 1); placed != 400 {
		t.Fatalf("placed %d / 400 on a 4,000-GPU cluster", placed)
	}
}

func TestLargeScaleMixRatio(t *testing.T) {
	mix := largeScaleMix(1000, 3600*sim.Second, sim.NewRNG(99))
	train, llm, inf := 0, 0, 0
	for _, m := range mix {
		switch {
		case strings.HasPrefix(m.fn, "train-"):
			train++
		case strings.HasPrefix(m.fn, "llm-"):
			llm++
		default:
			inf++
		}
	}
	if train != 200 || llm != 200 || inf != 600 {
		t.Fatalf("mix ratio %d:%d:%d, want 200:200:600", train, llm, inf)
	}
	for _, m := range mix {
		if m.depart <= m.arrive {
			t.Fatal("lifetime must be positive")
		}
	}
}

func TestReportsRenderNonEmpty(t *testing.T) {
	// Cheap structural check over the fast drivers.
	for _, id := range []string{"table2", "figure4", "figure9", "figure14", "figure17"} {
		d, _ := ByID(id)
		out := d.Run(testOpts()).String()
		if len(out) < 200 || !strings.Contains(out, "== "+id) {
			t.Fatalf("%s: degenerate report:\n%s", id, out)
		}
	}
}
