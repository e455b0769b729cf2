package simtest

import (
	"math/rand"
	"testing"

	"dilu/internal/core"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Property tests for the resilience layer, wired into `make
// test-race-subsys`: the capped exponential backoff's determinism and
// bounds, the SRE retry budget against the tenant ledger, and
// at-most-once service under random fault/retry/hedge interleavings
// with the armed invariants auditing every tick.

// TestBackoffDeterministicAndCapped: for every catalog model's SLO,
// Backoff is a pure function of the attempt number — deterministic,
// monotone non-decreasing, starting at SLO/4 and never exceeding 2·SLO.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	for _, spec := range model.All() {
		base, limit := spec.SLO/4, 2*spec.SLO
		prev := sim.Duration(0)
		for n := 1; n <= 40; n++ {
			d := core.Backoff(spec.SLO, n)
			if d != core.Backoff(spec.SLO, n) {
				t.Fatalf("%s: Backoff(%d) not deterministic", spec.Name, n)
			}
			if d < base || d > limit {
				t.Fatalf("%s: Backoff(%d)=%v outside [SLO/4 %v, 2·SLO %v]",
					spec.Name, n, d, base, limit)
			}
			if d < prev {
				t.Fatalf("%s: Backoff(%d)=%v < Backoff(%d)=%v", spec.Name, n, d, n-1, prev)
			}
			if n == 1 && d != base {
				t.Fatalf("%s: first backoff %v ≠ SLO/4 %v", spec.Name, d, base)
			}
			prev = d
		}
		if got := core.Backoff(spec.SLO, 40); got != limit {
			t.Fatalf("%s: Backoff(40)=%v never reached the cap %v", spec.Name, got, limit)
		}
	}
}

// resilienceChaos drives one random interleaving of request bursts and
// direct fault injections (slowdowns, restores, batch errors) against a
// two-node system with retry, hedging and quarantine on and the
// invariants armed, then drains and returns the system for property
// assertions.
func resilienceChaos(t *testing.T, seed int64) *core.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys := core.MustSystem(core.Config{
		Nodes: 2, GPUsPerNode: 2, Seed: seed,
		Invariants: Checkers(),
		Retry:      true, Hedge: true, Quarantine: true,
	})
	if _, err := sys.DeployInference("f", "BERT-base", core.InferOpts{Instances: 2, NoScaler: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployInference("g", "ResNet152", core.InferOpts{Instances: 2, NoScaler: true, Tenant: "alpha"}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		now := sys.Eng.Now()
		for i, burst := 0, rng.Intn(20); i < burst; i++ {
			req := core.Request{Func: []string{"f", "g"}[rng.Intn(2)]}
			if req.Func == "g" {
				req.Tenant = "alpha"
			}
			if rng.Intn(3) == 0 {
				req.Deadline = sim.Duration(20+rng.Intn(100)) * sim.Millisecond
			}
			sys.Submit(now, req)
		}
		switch rng.Intn(4) {
		case 0:
			sys.SlowGPU(rng.Intn(2), rng.Intn(2), 2+6*rng.Float64())
		case 1:
			sys.SlowGPU(rng.Intn(2), rng.Intn(2), 1) // restore
		case 2:
			sys.ErrorGPU(rng.Intn(2), rng.Intn(2))
		}
		sys.Run(sim.Duration(1+rng.Intn(40)) * 5 * sim.Millisecond)
	}
	// Restore every device and drain: retries park for a few backoffs,
	// hedges resolve at first completion, and the drain outlasts two
	// readmit probes so a quarantined GPU comes back.
	for n := 0; n < 2; n++ {
		for g := 0; g < 2; g++ {
			sys.SlowGPU(n, g, 1)
		}
	}
	sys.Run(15 * sim.Second)
	return sys
}

// TestRetryBudgetBoundsRedeliveries: across random fault interleavings,
// each tenant's retries + hedges stay within the SRE budget — a
// fraction of its admitted traffic (one in-flight redelivery of slack
// past the strict bound, since the budget is checked before acting).
func TestRetryBudgetBoundsRedeliveries(t *testing.T) {
	const budget = core.RetryBudget
	for seed := int64(1); seed <= 5; seed++ {
		sys := resilienceChaos(t, seed)
		var acted bool
		for _, ts := range sys.GatewayTenantStats() {
			redelivered := float64(ts.Retries + ts.Hedges)
			if bound := budget*float64(ts.Admitted) + 1; redelivered > bound {
				t.Fatalf("seed %d: tenant %q redelivered %v > budget %.2f × admitted %d + 1",
					seed, ts.Tenant, redelivered, budget, ts.Admitted)
			}
			if ts.Retries+ts.Hedges > 0 {
				acted = true
			}
		}
		if !acted {
			t.Fatalf("seed %d: no retries or hedges fired — chaos too gentle to test the budget", seed)
		}
	}
}

// TestAtMostOnceUnderFaultInterleavings: random abort/retry/hedge
// interleavings never serve a request twice and never leak one — the
// unique-served count matches the ledger and the extended conservation
// recount (parked + in-flight + speculative copies) balances. The armed
// checkers audit the same invariants at every fired tick; this is the
// independent end-of-run restatement.
func TestAtMostOnceUnderFaultInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := resilienceChaos(t, seed)
		for _, f := range sys.Functions() {
			unique, ok := f.UniqueServed()
			if !ok {
				t.Fatalf("seed %d: %s lost its resilience ledger", seed, f.Name)
			}
			if unique != f.Served() {
				t.Fatalf("seed %d: %s served %d requests but %d unique — duplicate service",
					seed, f.Name, f.Served(), unique)
			}
			_, adm, _ := f.GatewayCounts()
			if adm != f.Served()+f.InFlightCount() {
				t.Fatalf("seed %d: %s ledger broken: admitted %d ≠ served %d + inflight %d",
					seed, f.Name, adm, f.Served(), f.InFlightCount())
			}
			if recount, extra := f.RecountInFlight(), f.ExtraCopies(); recount != f.InFlightCount()+extra {
				t.Fatalf("seed %d: %s recount %d ≠ in-flight %d + extra copies %d",
					seed, f.Name, recount, f.InFlightCount(), extra)
			}
		}
	}
}

// TestScaleInTeardownLosesNothing is the scale-in regression test:
// under a no-keep-alive policy (Dilu's lazy scale-in, TTL 0) a burst
// that scales out and then ebbs tears instances down mid-batch. The
// dying batch goes back through the gateway, so once arrivals stop and
// the run drains, every admitted request has been served.
func TestScaleInTeardownLosesNothing(t *testing.T) {
	sys := core.MustSystem(core.Config{
		Nodes: 1, GPUsPerNode: 4, Seed: 11,
		Invariants: Checkers(),
		// Hair-trigger lazy scale-in so the underloaded tail of the
		// run sheds instances while their batches still execute.
		NewScaler: func() scaler.Policy {
			return scaler.NewDilu(scaler.DiluConfig{Window: 4, PhiOut: 2, PhiIn: 2})
		},
	})
	prof := profiler.For(model.ByName("VGG19"), profiler.RoleInference)
	// ~1.5× one instance's rate: under 2-instance capacity, so the
	// scaler keeps trying to shed the third instance mid-traffic.
	// Arrivals stop at 30 s; the last 10 s drain the queues.
	load := workload.Poisson{RPS: 1.5 * prof.ServingRPS}
	f, err := sys.DeployInference("f", "VGG19", core.InferOpts{
		Instances: 3,
		Arrivals:  workload.Times{Label: "poisson-30s", T: load.Generate(sim.NewRNG(11), 30*sim.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(40 * sim.Second)
	if f.InstTrace.Min() >= 3 {
		t.Fatal("scaler never scaled in — teardown path not exercised")
	}
	_, adm, _ := f.GatewayCounts()
	if adm == 0 || f.Served() != adm {
		t.Fatalf("served %d of %d admitted (in flight %d) after the drain",
			f.Served(), adm, f.InFlightCount())
	}
}
