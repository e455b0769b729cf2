package experiments

import (
	"dilu/internal/core"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Gateway drivers: the overload regime the pre-gateway suite could not
// express. Both scenarios push demand past fixed serving capacity
// (NoScaler — the question is admission, not elasticity) and read the
// per-tenant admitted/shed/goodput ledger back out of the SLO summary.

// gatewayTenantTable is the per-tenant admission accounting table shared
// by the gateway drivers.
func gatewayTenantTable(rep *report.Report, caption string) *report.Table {
	return rep.AddTable(report.NewTable(caption,
		"policy", "tenant", "submitted", "admitted", "shed", "served", "goodput rps"))
}

// gatewayTenantRows adds one run's per-tenant ledger to the table.
func gatewayTenantRows(t *report.Table, policy string, g metrics.GatewaySLO) {
	for _, ts := range g.Tenants {
		t.AddRow(policy, ts.Tenant, float64(ts.Submitted), float64(ts.Admitted),
			float64(ts.Shed), float64(ts.Served), ts.GoodputRPS)
	}
}

// OverloadShed drives three tenants at 2× their fixed serving capacity
// and compares admission policies: admit-all (the pre-gateway
// behaviour), a per-tenant token bucket at capacity rate, and
// deadline-aware shedding. Under overload admit-all queues grow without
// bound and p99 latency for admitted traffic explodes; shedding trades
// dropped requests for SLO goodput — the DeepServe/HAS-GPU production
// tradeoff the gateway exists to express.
func OverloadShed(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("overload_shed", "Overload shedding: admission policy vs SLO goodput at 2× capacity (extra)")
	dur := opts.dur(60 * sim.Second)

	const modelName = "ResNet152"
	prof := profiler.For(model.ByName(modelName), profiler.RoleInference)
	capacity := prof.ServingRPS // per tenant: one fixed instance each
	demand := 2 * capacity
	slo := model.ByName(modelName).SLO

	policies := []struct {
		name string
		mk   func() core.AdmissionPolicy
	}{
		// Fresh policy values per run: admission state is per-system.
		{"admit-all", func() core.AdmissionPolicy { return nil }},
		{"token-bucket", func() core.AdmissionPolicy { return core.NewTokenBucket(0.9*capacity, capacity) }},
		{"deadline-shed", func() core.AdmissionPolicy { return core.DeadlineShed{Slack: 0.7} }},
	}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}

	perTenant := gatewayTenantTable(rep, "Overload: per-tenant admission ledger by policy")
	agg := rep.AddTable(report.NewTable(
		"Overload: admitted-traffic SLO attainment by policy",
		"policy", "submitted", "shed %", "admitted reqs", "goodput rps", "p99 ms", "p99 attain %"))

	for _, pol := range policies {
		sys := core.MustSystem(core.Config{
			Nodes: 1, GPUsPerNode: 4, Seed: opts.Seed, Meter: opts.Meter,
			Admission: pol.mk(),
		})
		for _, tenant := range tenants {
			if _, err := sys.DeployInference(tenant+"-fn", modelName, core.InferOpts{
				Instances: 1, NoScaler: true,
				Tenant:   tenant,
				Deadline: slo,
				Arrivals: workload.Poisson{RPS: demand},
			}); err != nil {
				panic(err)
			}
		}
		sys.Run(dur)
		sum := sys.SLOSummary()
		g := sum.Gateway
		gatewayTenantRows(perTenant, pol.name, g)
		var p99 float64
		for _, st := range sum.Funcs {
			if st.P99Millis > p99 {
				p99 = st.P99Millis
			}
		}
		agg.AddRow(pol.name, float64(g.Submitted), g.ShedRate()*100,
			float64(sum.Requests), sum.GoodputRPS, p99, sum.P99Attainment*100)
		if pol.name == "deadline-shed" {
			rep.SetSLO(sum)
		}
	}
	rep.AddNote("fixed capacity (NoScaler), offered load 2×: admit-all p99 grows with the horizon while shedding policies hold admitted-traffic p99 near the SLO and shed the excess")
	return rep
}

// TenantFairness runs a Zipf tenant mix whose head tenant floods at 3×
// its popularity share and compares admit-all against DRF-style
// weighted fair sharing of the in-flight request pool: fair sharing
// concentrates shedding on the flood tenant and leaves the tail's
// traffic untouched, instead of letting one tenant queue without bound.
func TenantFairness(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("tenant_fairness", "Tenant fairness: DRF fair-share admission under a head-tenant flood (extra)")
	dur := opts.dur(60 * sim.Second)

	const modelName = "ResNet152"
	prof := profiler.For(model.ByName(modelName), profiler.RoleInference)

	mix := workload.TenantMix{
		Tenants: 4, TotalRPS: 2.5 * prof.ServingRPS, Skew: 1,
		Shape: func(i int, rps float64) workload.Arrivals {
			if i == 0 {
				// The head tenant floods at 3× its popularity share.
				return workload.Constant{RPS: 3 * rps}
			}
			return workload.Poisson{RPS: rps}
		},
	}
	// One split shared by both policies: byte-identical offered load.
	tenants := mix.Split(sim.NewRNG(opts.Seed), dur)

	policies := []struct {
		name string
		mk   func() core.AdmissionPolicy
	}{
		{"admit-all", func() core.AdmissionPolicy { return nil }},
		{"fair-share", func() core.AdmissionPolicy { return core.FairShare{Capacity: 24} }},
	}

	perTenant := gatewayTenantTable(rep, "Fairness: per-tenant admission ledger by policy")
	for _, pol := range policies {
		sys := core.MustSystem(core.Config{
			Nodes: 1, GPUsPerNode: 4, Seed: opts.Seed, Meter: opts.Meter,
			Admission: pol.mk(),
		})
		for _, ta := range tenants {
			if _, err := sys.DeployInference(ta.Tenant+"-fn", modelName, core.InferOpts{
				Instances: 1, NoScaler: true,
				Tenant:   ta.Tenant,
				Arrivals: workload.Times{Label: ta.Tenant, T: ta.Times},
			}); err != nil {
				panic(err)
			}
		}
		sys.Run(dur)
		sum := sys.SLOSummary()
		gatewayTenantRows(perTenant, pol.name, sum.Gateway)
		if pol.name == "fair-share" {
			rep.SetSLO(sum)
		}
	}
	rep.AddNote("fair-share caps the flood tenant at its max-min share of the in-flight pool (idle shares redistribute), so shed counts concentrate on the flooding tenant while the tail admits everything")
	return rep
}
