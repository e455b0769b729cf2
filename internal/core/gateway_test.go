package core

import (
	"math"
	"testing"

	"dilu/internal/instance"
	"dilu/internal/sim"
)

// gatewaySystem is a 1×2 system with one deployed function and its only
// instance deactivated, so submitted requests park in the pending queue.
func gatewaySystem(t *testing.T, cfg Config) (*System, *Function) {
	t.Helper()
	sys := MustSystem(cfg)
	f, err := sys.DeployInference("f", "BERT-base", InferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, f
}

func TestSubmitUnknownFunctionPanics(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Submit to unknown function did not panic")
		}
	}()
	sys.Submit(0, Request{Func: "nope"})
}

func TestSubmitInheritsDeploymentTenant(t *testing.T) {
	sys := MustSystem(Config{Nodes: 1, GPUsPerNode: 2})
	if _, err := sys.DeployInference("a", "BERT-base", InferOpts{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	sys.Submit(0, Request{Func: "a"})                  // inherits "acme"
	sys.Submit(0, Request{Func: "a", Tenant: "other"}) // explicit override
	stats := sys.GatewayTenantStats()
	if len(stats) != 2 {
		t.Fatalf("tenant ledgers = %d, want 2 (acme, other)", len(stats))
	}
	if stats[0].Tenant != "acme" || stats[0].Submitted != 1 {
		t.Fatalf("acme ledger = %+v", stats[0])
	}
	if stats[1].Tenant != "other" || stats[1].Submitted != 1 {
		t.Fatalf("other ledger = %+v", stats[1])
	}
}

// TestPendingDrainOrder pins the pending queue's drain order: priority
// descending, then deadline ascending (no deadline last), and — the
// regression this test exists for — FIFO among full ties, so the
// pre-gateway all-default workloads drain in exactly their arrival
// order.
func TestPendingDrainOrder(t *testing.T) {
	sys, f := gatewaySystem(t, Config{Nodes: 1, GPUsPerNode: 2, Seed: 3})
	f.active[0].inst.SetActive(false)

	submit := func(tag string, prio int, deadline sim.Duration) {
		// Encode the tag in the tenant so the drain order is observable.
		sys.Submit(sys.Eng.Now(), Request{Func: "f", Tenant: tag, Priority: prio, Deadline: deadline})
	}
	submit("late-deadline", 0, 500*sim.Millisecond)
	submit("default-1", 0, 0)
	submit("high-prio", 1, 0)
	submit("early-deadline", 0, 100*sim.Millisecond)
	submit("default-2", 0, 0)
	submit("high-prio-late", 1, 900*sim.Millisecond)

	f.orderPending()
	got := make([]string, len(f.pending))
	for i, req := range f.pending {
		got[i] = req.Tenant
	}
	// Priority 1 first (FIFO between the deadline-less and the
	// deadlined: deadline ascending puts 900ms ahead of none), then the
	// deadlined priority-0 requests by deadline, then the defaults in
	// arrival order.
	want := []string{"high-prio-late", "high-prio", "early-deadline", "late-deadline", "default-1", "default-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}

	// All-default queues must stay strictly FIFO (the byte-compat
	// contract for every pre-gateway driver).
	f.pending = f.pending[:0]
	for i := 0; i < 8; i++ {
		f.pending = append(f.pending, instance.Request{ID: int64(i + 1)})
	}
	f.orderPending()
	for i, req := range f.pending {
		if req.ID != int64(i+1) {
			t.Fatalf("all-default queue reordered at %d: %v", i, req.ID)
		}
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	tb := NewTokenBucket(10, 5) // 10/s sustained, burst 5
	admitted := 0
	// Burst at t=0: exactly the bucket depth.
	for i := 0; i < 20; i++ {
		if tb.Admit(0, Request{Tenant: "a"}, nil) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("burst admitted %d, want 5", admitted)
	}
	// After one second the bucket holds min(burst, 10) = 5 again.
	admitted = 0
	for i := 0; i < 20; i++ {
		if tb.Admit(sim.Second, Request{Tenant: "a"}, nil) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("refilled admitted %d, want 5", admitted)
	}
	// Independent per-tenant buckets.
	if !tb.Admit(sim.Second, Request{Tenant: "b"}, nil) {
		t.Fatal("fresh tenant denied its full bucket")
	}
	// A zero-rate bucket admits nothing.
	if NewTokenBucket(0, 0).Admit(0, Request{}, nil) {
		t.Fatal("zero-rate bucket admitted")
	}
}

func TestFairSharesWaterFilling(t *testing.T) {
	// Demand saturates capacity: shares sum to capacity exactly.
	alloc := FairShares(10, nil, []float64{8, 8, 8})
	var sum float64
	for _, a := range alloc {
		sum += a
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Fatalf("saturated shares sum %v, want 10", sum)
	}
	// Equal weights, equal demand → equal split.
	for _, a := range alloc {
		if math.Abs(a-10.0/3) > 1e-9 {
			t.Fatalf("equal-demand split %v", alloc)
		}
	}
	// Idle share redistributes: one small demand frees room.
	alloc = FairShares(10, nil, []float64{1, 20, 20})
	if math.Abs(alloc[0]-1) > 1e-9 || math.Abs(alloc[1]-4.5) > 1e-9 || math.Abs(alloc[2]-4.5) > 1e-9 {
		t.Fatalf("redistribution alloc %v, want [1 4.5 4.5]", alloc)
	}
	// Weighted: tenant 0 gets twice tenant 1's share.
	alloc = FairShares(9, []float64{2, 1}, []float64{100, 100})
	if math.Abs(alloc[0]-6) > 1e-9 || math.Abs(alloc[1]-3) > 1e-9 {
		t.Fatalf("weighted alloc %v, want [6 3]", alloc)
	}
	// Under-demanded capacity: everyone gets their full demand.
	alloc = FairShares(100, nil, []float64{3, 4})
	if alloc[0] != 3 || alloc[1] != 4 {
		t.Fatalf("slack alloc %v, want [3 4]", alloc)
	}
}

func TestDeadlineShedUnderBacklog(t *testing.T) {
	sys, f := gatewaySystem(t, Config{Nodes: 1, GPUsPerNode: 2, Seed: 5})
	p := DeadlineShed{}
	// Healthy function, generous deadline: admitted.
	if !p.Admit(0, Request{Func: "f", Deadline: sim.Second}, f) {
		t.Fatal("unloaded function shed a 1s-deadline request")
	}
	// No serving instance → estimate is +Inf → any deadline sheds.
	f.active[0].inst.SetActive(false)
	if p.Admit(0, Request{Func: "f", Deadline: sim.Minute}, f) {
		t.Fatal("coldstarting function admitted a deadlined request")
	}
	// Without any deadline (request or SLO) there is nothing to shed
	// against.
	f.Rec = sys.funcByName["f"].Rec
	noSLO := DeadlineShed{}
	req := Request{Func: "f"}
	if f.Rec.SLO() > 0 && noSLO.Admit(0, req, f) {
		t.Fatal("SLO-bound function admitted despite cold state")
	}
}

func TestShedRequestsNeverReachInstances(t *testing.T) {
	sys := MustSystem(Config{
		Nodes: 1, GPUsPerNode: 2, Seed: 9,
		Admission: NewTokenBucket(1, 2),
	})
	f, err := sys.DeployInference("f", "BERT-base", InferOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sys.Submit(0, Request{Func: "f"})
	}
	sub, adm, shed := f.GatewayCounts()
	if sub != 10 || adm != 2 || shed != 8 {
		t.Fatalf("ledger %d/%d/%d, want 10/2/8", sub, adm, shed)
	}
	if got := f.RecountInFlight(); got != 2 {
		t.Fatalf("in-flight recount %d, want 2 (shed requests leaked into the plane)", got)
	}
	sys.Run(2 * sim.Second)
	if f.Served() != 2 {
		t.Fatalf("served %d, want the 2 admitted", f.Served())
	}
	sum := sys.SLOSummary()
	if sum.Gateway.Policy != "token-bucket" || sum.Gateway.Shed != 8 {
		t.Fatalf("gateway block %+v", sum.Gateway)
	}
}

// TestGatewayBlockPresentForDefaultRuns: a single-tenant admit-all run
// still reports its gateway block — no policy, one "default" tenant row
// carrying the whole ledger.
func TestGatewayBlockPresentForDefaultRuns(t *testing.T) {
	sys, _ := gatewaySystem(t, Config{Nodes: 1, GPUsPerNode: 2, Seed: 4})
	for i := 0; i < 5; i++ {
		sys.Submit(0, Request{Func: "f"})
	}
	sys.Run(sim.Second)
	g := sys.SLOSummary().Gateway
	if g.Policy != "" || g.Submitted != 5 || g.Admitted != 5 || g.Shed != 0 {
		t.Fatalf("default run gateway block %+v, want admit-all 5/5/0", g)
	}
	if len(g.Tenants) != 1 || g.Tenants[0].Tenant != "default" || g.Tenants[0].Admitted != 5 {
		t.Fatalf("default run tenant rows %+v, want one default row", g.Tenants)
	}
}
