package simtest

import (
	"strings"
	"testing"

	"dilu/internal/core"
	"dilu/internal/rckm"
	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// checkedSystem builds a small collocated system with every checker
// attached and both workload kinds deployed.
func checkedSystem(t *testing.T) *core.System {
	t.Helper()
	sys := core.MustSystem(core.Config{
		Nodes: 1, GPUsPerNode: 2, Seed: 7,
		Invariants: Checkers(),
		NewScaler:  func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) },
	})
	if _, err := sys.DeployTraining("train", "BERT-base", core.TrainOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployInference("inf", "RoBERTa-large", core.InferOpts{
		Arrivals: workload.Poisson{RPS: 30},
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCheckersGreenOnHealthySystem(t *testing.T) {
	sys := checkedSystem(t)
	// Scale-out/in, keep-alive churn and training completion all happen
	// inside this horizon; any bookkeeping drift panics.
	sys.Run(40 * sim.Second)
}

func TestCheckersAreFreshPerCall(t *testing.T) {
	a, b := Checkers(), Checkers()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("checker count: %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name == "" || a[i].Check == nil {
			t.Fatalf("checker %d incomplete", i)
		}
		// Closures must be distinct instances (per-system state).
		if &a[i] == &b[i] {
			t.Fatal("shared checker instance")
		}
	}
}

func TestQuotaConservationCatchesDrift(t *testing.T) {
	sys := checkedSystem(t)
	sys.Run(2 * sim.Second)
	g := sys.Clu.GPUs()[0]
	g.SumReq += 0.25 // simulate a leaked reservation
	err := QuotaConservation().Check(sys, sys.Eng.Now())
	if err == nil || !strings.Contains(err.Error(), "quota sums drifted") {
		t.Fatalf("drift not caught: %v", err)
	}
	g.SumReq -= 0.25
	if err := QuotaConservation().Check(sys, sys.Eng.Now()); err != nil {
		t.Fatalf("healthy system flagged: %v", err)
	}
}

func TestQuotaConservationCatchesDeviceSplitBrain(t *testing.T) {
	sys := checkedSystem(t)
	sys.Run(2 * sim.Second)
	for _, g := range sys.Clu.GPUs() {
		if len(g.Placements) == 0 {
			continue
		}
		p := g.Placements[0]
		p.MemMB += 512 // placement-side accounting now disagrees
		g.MemUsedMB += 512
		err := QuotaConservation().Check(sys, sys.Eng.Now())
		if err == nil || !strings.Contains(err.Error(), "split brain") {
			t.Fatalf("device split brain not caught: %v", err)
		}
		p.MemMB -= 512
		g.MemUsedMB -= 512
		return
	}
	t.Fatal("no placed GPU found")
}

// TestActiveSetConsistencyCatchesSplitTickSet pins the one-set premise
// of the tick loop: a resident attached without a client, or a client
// registered without a resident, leaves the GPU's manager out of the
// tick set while the GPU has work, and the checker must say so.
func TestActiveSetConsistencyCatchesSplitTickSet(t *testing.T) {
	sys := core.MustSystem(core.Config{Nodes: 1, GPUsPerNode: 2, Seed: 7})
	check := func() error { return ActiveSetConsistency().Check(sys, sys.Eng.Now()) }
	if err := check(); err != nil {
		t.Fatalf("idle system flagged: %v", err)
	}
	g := sys.Clu.GPUs()[1]
	res, err := g.Dev.Attach("stray", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(); err == nil || !strings.Contains(err.Error(), "0 clients and 1 residents") {
		t.Fatalf("resident outside the tick set not caught: %v", err)
	}
	g.Dev.Detach(res)
	c := &rckm.Client{ID: "stray"}
	sys.Manager(g).Register(c)
	if err := check(); err == nil || !strings.Contains(err.Error(), "1 clients and 0 residents") {
		t.Fatalf("client outside the tick set not caught: %v", err)
	}
	sys.Manager(g).Unregister(c)
	if err := check(); err != nil {
		t.Fatalf("restored system flagged: %v", err)
	}
}

func TestMonotoneTimeCatchesBackwardsClock(t *testing.T) {
	sys := checkedSystem(t)
	sys.Run(6 * sim.Second) // advance the engine clock past the probe times
	inv := MonotoneTime()
	if err := inv.Check(sys, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	err := inv.Check(sys, 4*sim.Second)
	if err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("backwards clock not caught: %v", err)
	}
	// A fresh instance has no watermark — same time is fine again.
	if err := MonotoneTime().Check(sys, 4*sim.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNoNegativeResidentsCatchesCorruption(t *testing.T) {
	sys := checkedSystem(t)
	sys.Run(2 * sim.Second)
	for _, g := range sys.Clu.GPUs() {
		if g.Dev == nil || g.Dev.ResidentCount() == 0 {
			continue
		}
		r := g.Dev.Residents()[0]
		r.MemMB = -1
		err := NoNegativeResidents().Check(sys, sys.Eng.Now())
		if err == nil || !strings.Contains(err.Error(), "negative resident memory") {
			t.Fatalf("negative memory not caught: %v", err)
		}
		r.MemMB = 1
		return
	}
	t.Fatal("no resident found")
}

func TestViolationPanicsDuringRun(t *testing.T) {
	sys := core.MustSystem(core.Config{
		Nodes: 1, GPUsPerNode: 1, Seed: 1,
		Invariants: []core.Invariant{{
			Name: "always-broken",
			Check: func(*core.System, sim.Time) error {
				return errInjected
			},
		}},
	})
	if _, err := sys.DeployInference("inf", "BERT-base", core.InferOpts{
		Arrivals: workload.Constant{RPS: 10},
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "always-broken") {
			t.Fatalf("panic does not name the invariant: %v", r)
		}
	}()
	sys.Run(10 * sim.Second)
}

var errInjected = errInjectedType{}

type errInjectedType struct{}

func (errInjectedType) Error() string { return "injected failure" }

func TestActiveSetConsistencyGreenAcrossScaling(t *testing.T) {
	// A bursty workload drives scale-out (cold starts), keep-alive
	// descheduling and warm reuse — the transitions the active-set
	// bookkeeping has to survive.
	sys := core.MustSystem(core.Config{
		Nodes: 1, GPUsPerNode: 4, Seed: 3,
		Invariants: Checkers(),
		NewScaler:  func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) },
	})
	if _, err := sys.DeployInference("burst", "RoBERTa-large", core.InferOpts{
		Arrivals: workload.Bursty{BaseRPS: 10, Scale: 6, BurstDur: 5 * sim.Second, Quiet: 10 * sim.Second},
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run(60 * sim.Second)
	if err := ActiveSetConsistency().Check(sys, sys.Eng.Now()); err != nil {
		t.Fatal(err)
	}
}
