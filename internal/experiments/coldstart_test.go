package experiments

import "testing"

// TestColdStartStagesCacheCutsColdTime pins the coldstart_stages
// acceptance property: both arms see the same launches, only the cache
// arm shortens them (by skipping the JIT stage on a hit), and each
// arm's cold-start violations are exactly its per-stage sum.
func TestColdStartStagesCacheCutsColdTime(t *testing.T) {
	rep := ColdStartStages(testOpts())
	timing := rep.Table("Cold-start timing by arm (cache hits skip the JIT stage)")
	if timing == nil || len(timing.Rows) != 2 {
		t.Fatal("timing table wrong: want the staged and staged+cache arms")
	}
	staged, cached := timing.Rows[0], timing.Rows[1]
	if staged[0] != "staged" || cached[0] != "staged+cache" {
		t.Fatalf("arms %q, %q", staged[0], cached[0])
	}
	if gwCell(t, staged, 2) != gwCell(t, cached, 2) {
		t.Fatalf("arms launched differently: %v vs %v cold launches", staged[2], cached[2])
	}
	if gwCell(t, cached, 3) <= 0 {
		t.Fatal("staged+cache arm never hit the kernel cache")
	}
	if gwCell(t, cached, 5) >= gwCell(t, staged, 5) {
		t.Fatalf("cache hits did not cut the mean cold start: %v ms vs %v ms", cached[5], staged[5])
	}
	attr := rep.Table("Violation attribution by arm")
	if attr == nil || len(attr.Rows) != 2 {
		t.Fatal("attribution table wrong")
	}
	for _, row := range attr.Rows {
		if sum := gwCell(t, row, 3) + gwCell(t, row, 4) + gwCell(t, row, 5); sum != gwCell(t, row, 2) {
			t.Fatalf("arm %s: cold viol %v ≠ stage sum %v", row[0], row[2], sum)
		}
	}
	if rep.SLO == nil || rep.SLO.ColdStart.KernelCacheHits == 0 {
		t.Fatal("staged+cache SLO summary carries no kernel-cache hits")
	}
}
