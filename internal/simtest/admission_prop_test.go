package simtest

import (
	"math"
	"math/rand"
	"testing"

	"dilu/internal/core"
	"dilu/internal/scaler"
	"dilu/internal/sim"
)

// Property tests for the admission layer, wired into `make
// test-race-subsys`: random submit/shed/serve interleavings against the
// full-recount conservation reference, the token bucket's rate bound,
// and the water-filling allocator's max-min contract.

// TestAdmissionInterleavingsConserveRequests drives random interleavings
// of gateway submissions (random tenants, priorities, deadlines, burst
// sizes) and serving progress (random run lengths, so batches complete
// between bursts) through a fair-share-limited system (its in-flight
// cap sheds on seeds 4 and 5). The armed request-conservation checker
// audits ledger-vs-recount at every fired tick; the explicit end-of-run
// check is the same full-recount reference stated independently of the
// invariant code path.
func TestAdmissionInterleavingsConserveRequests(t *testing.T) {
	tenants := []string{"", "alpha", "beta", "gamma"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := core.MustSystem(core.Config{
			Nodes: 1, GPUsPerNode: 2, Seed: seed,
			Invariants: Checkers(),
			Admission:  core.FairShare{Capacity: 16},
			NewScaler:  func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) },
		})
		if _, err := sys.DeployInference("f", "BERT-base", core.InferOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeployInference("g", "ResNet152", core.InferOpts{Tenant: "alpha"}); err != nil {
			t.Fatal(err)
		}

		var submitted, admitted int64
		for step := 0; step < 40; step++ {
			burst := rng.Intn(12)
			now := sys.Eng.Now()
			for i := 0; i < burst; i++ {
				req := core.Request{
					Func:     []string{"f", "g"}[rng.Intn(2)],
					Tenant:   tenants[rng.Intn(len(tenants))],
					Priority: rng.Intn(3),
				}
				if rng.Intn(2) == 0 {
					req.Deadline = sim.Duration(rng.Intn(200)) * sim.Millisecond
				}
				submitted++
				if sys.Submit(now, req) {
					admitted++
				}
			}
			// Random serving progress: up to ~300 ms between bursts.
			sys.Run(sim.Duration(1+rng.Intn(60)) * 5 * sim.Millisecond)
		}
		sys.Run(2 * sim.Second) // drain

		// Full-recount reference, independent of the invariant: totals
		// across functions and tenants must both equal the driver's own
		// count, and in-flight must equal the plane recount.
		var fSub, fAdm, fShed, fServed, fInflight, fRecount int64
		for _, f := range sys.Functions() {
			sub, adm, shed := f.GatewayCounts()
			fSub += sub
			fAdm += adm
			fShed += shed
			fServed += f.Served()
			fInflight += f.InFlightCount()
			fRecount += f.RecountInFlight()
		}
		if fSub != submitted || fAdm != admitted {
			t.Fatalf("seed %d: ledger %d/%d, driver counted %d/%d (submitted/admitted)",
				seed, fSub, fAdm, submitted, admitted)
		}
		if fSub != fAdm+fShed {
			t.Fatalf("seed %d: submitted %d ≠ admitted %d + shed %d", seed, fSub, fAdm, fShed)
		}
		if fAdm != fServed+fInflight {
			t.Fatalf("seed %d: admitted %d ≠ served %d + in-flight %d",
				seed, fAdm, fServed, fInflight)
		}
		if fInflight != fRecount {
			t.Fatalf("seed %d: in-flight ledger %d ≠ plane recount %d", seed, fInflight, fRecount)
		}
		var tSub int64
		for _, ts := range sys.GatewayTenantStats() {
			tSub += ts.Submitted
		}
		if tSub != submitted {
			t.Fatalf("seed %d: tenant ledgers sum %d, driver submitted %d", seed, tSub, submitted)
		}
	}
}

// TestTokenBucketNeverExceedsRate: over any prefix of any random
// admission sequence, a tenant's admitted count is bounded by
// burst + rate·elapsed — the token bucket's defining property.
func TestTokenBucketNeverExceedsRate(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rate := 1 + 50*rng.Float64()
		burst := 1 + 20*rng.Float64()
		tb := core.NewTokenBucket(rate, burst)
		admitted := 0.0
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			now += sim.Duration(rng.Intn(50)) * sim.Millisecond
			if tb.Admit(now, core.Request{Tenant: "t"}, nil) {
				admitted++
			}
			bound := burst + rate*now.Seconds()
			if admitted > bound+1e-6 {
				t.Fatalf("seed %d: admitted %.0f > burst %.2f + rate %.2f × %.3fs at step %d",
					seed, admitted, burst, rate, now.Seconds(), i)
			}
		}
		// Sanity floor only: tokens above the burst cap are legitimately
		// lost when rate·gap exceeds burst, so the upper bound above is
		// the property; a saturating caller must still admit something.
		if admitted == 0 {
			t.Fatalf("seed %d: saturating caller admitted nothing (rate %.2f, burst %.2f)", seed, rate, burst)
		}
	}
}

// TestFairSharesProperties: for random capacities, weights and demands
// the water-filling allocation (a) never exceeds any tenant's demand,
// (b) sums to min(capacity, Σdemand) — shares sum to capacity exactly
// under saturation — and (c) is max-min fair: an unsatisfied tenant's
// weighted share is no smaller than any other tenant's weighted
// allocation (nobody it could take from sits above it).
func TestFairSharesProperties(t *testing.T) {
	const eps = 1e-6
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		capacity := 30 * rng.Float64()
		weights := make([]float64, n)
		demands := make([]float64, n)
		var totalDemand float64
		for i := range weights {
			weights[i] = 0.5 + 2*rng.Float64()
			demands[i] = float64(rng.Intn(15))
			totalDemand += demands[i]
		}
		alloc := core.FairShares(capacity, weights, demands)
		var sum float64
		for i, a := range alloc {
			if a < -eps || a > demands[i]+eps {
				t.Fatalf("seed %d: alloc[%d]=%.6f outside [0, demand %.0f]", seed, i, a, demands[i])
			}
			sum += a
		}
		want := math.Min(capacity, totalDemand)
		if math.Abs(sum-want) > eps {
			t.Fatalf("seed %d: Σalloc %.6f ≠ min(capacity %.3f, Σdemand %.0f)", seed, sum, capacity, totalDemand)
		}
		for i := range alloc {
			if demands[i]-alloc[i] <= eps {
				continue // satisfied
			}
			for j := range alloc {
				if j == i || alloc[j] <= eps {
					continue
				}
				if alloc[j]/weights[j] > alloc[i]/weights[i]+eps {
					t.Fatalf("seed %d: not max-min: unsatisfied tenant %d at level %.6f while tenant %d holds %.6f",
						seed, i, alloc[i]/weights[i], j, alloc[j]/weights[j])
				}
			}
		}
	}
}
