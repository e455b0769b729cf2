package core

import (
	"fmt"
	"slices"

	"dilu/internal/metrics"
	"dilu/internal/sim"
)

// This file is the production request path in front of the serving
// plane: every request enters the system as a core.Request through
// System.Submit, carrying structured tenant identity, priority, and a
// deadline budget. The gateway accounts the request against its tenant,
// consults the admission policy (nil = admit-all pass-through), and
// either injects the request into the target function or sheds it. The
// ledger it maintains — submitted = admitted + shed per tenant and per
// function, admitted = served + in-flight — is what the simtest
// request-conservation invariant recounts from first principles.

// Request is one inference invocation submitted to the gateway.
type Request struct {
	// Func names the target inference function (the DeployInference
	// name).
	Func string
	// Tenant is the structured tenant identity the request is accounted
	// against. Empty inherits the target function's deployment tenant
	// (which is itself empty for single-tenant scenarios — the default
	// tenant).
	Tenant string
	// Priority orders gateway-queued requests: higher drains first.
	Priority int
	// Deadline is the request's completion budget relative to its
	// submission time; zero means none (deadline-aware policies then
	// fall back to the function's SLO target).
	Deadline sim.Duration
	// PromptTokens and DecodeTokens are the token-level lengths of an
	// LLM request; zero on both makes the target function's token
	// sampler (if any) stamp them at injection. Ignored by fixed-batch
	// functions.
	PromptTokens int
	DecodeTokens int
}

// TenantStats is the gateway's per-tenant admission ledger. Hedges
// counts speculative duplicates drawn against the tenant's hedge budget
// (Hedges ≤ HedgeBudget × Admitted — the budget check reads exactly this
// counter, so amplification is bounded per tenant, not per function).
type TenantStats struct {
	Tenant    string
	Submitted int64
	Admitted  int64
	Shed      int64
	Hedges    int64
}

// gateway is the admission front of a System: the pluggable policy and
// the per-tenant ledger the conservation invariant audits.
type gateway struct {
	policy AdmissionPolicy
	stats  map[string]*TenantStats
	order  []string // first-submission order (deterministic)
}

// tenantStats returns (creating on first use) the ledger of one tenant.
func (sys *System) tenantStats(tenant string) *TenantStats {
	if ts, ok := sys.gw.stats[tenant]; ok {
		return ts
	}
	ts := &TenantStats{Tenant: tenant}
	sys.gw.stats[tenant] = ts
	sys.gw.order = append(sys.gw.order, tenant)
	return ts
}

// AdmissionPolicy returns the configured admission policy (nil means
// admit-all).
func (sys *System) AdmissionPolicy() AdmissionPolicy { return sys.gw.policy }

// Submit routes one request through the gateway at the current virtual
// time: tenant accounting, admission, then dispatch into the serving
// plane. It reports whether the request was admitted. Submitting to an
// unknown function panics — a driver wiring bug, not a load condition.
func (sys *System) Submit(now sim.Time, req Request) bool {
	f := sys.funcByName[req.Func]
	if f == nil {
		panic(fmt.Sprintf("core: Submit to unknown function %q", req.Func))
	}
	return sys.submit(f, now, req)
}

// submit is the gateway hot path with the target function pre-resolved
// (the deployment arrival series uses it directly, skipping the by-name
// lookup per request).
func (sys *System) submit(f *Function, now sim.Time, req Request) bool {
	if req.Tenant == "" {
		req.Tenant = f.tenant
	}
	ts := sys.tenantStats(req.Tenant)
	ts.Submitted++
	f.submitted++
	if sys.gw.policy != nil && !sys.gw.policy.Admit(now, req, f) {
		ts.Shed++
		f.shed++
		return false
	}
	ts.Admitted++
	f.admitted++
	f.inject(now, req)
	return true
}

// GatewayTenantStats returns a copy of the per-tenant gateway ledger in
// first-submission order (read-only view for invariants and tests).
func (sys *System) GatewayTenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(sys.gw.order))
	for _, t := range sys.gw.order {
		out = append(out, *sys.gw.stats[t])
	}
	return out
}

// gatewaySLO rolls the admission ledger into the SLO summary's gateway
// block: aggregate and per-tenant submitted/admitted/shed, with served
// and goodput joined from the tenant's deployed functions. Tenants are
// sorted by name for output stability; the default tenant renders as
// "default".
func (sys *System) gatewaySLO(horizon sim.Duration) metrics.GatewaySLO {
	var g metrics.GatewaySLO
	if sys.gw.policy != nil {
		g.Policy = sys.gw.policy.Name()
	}
	seconds := horizon.Seconds()
	tenants := slices.Sorted(slices.Values(sys.gw.order))
	for _, tenant := range tenants {
		ts := sys.gw.stats[tenant]
		row := metrics.TenantSLOStats{
			Tenant:    tenant,
			Submitted: ts.Submitted,
			Admitted:  ts.Admitted,
			Shed:      ts.Shed,
			Hedges:    ts.Hedges,
		}
		if row.Tenant == "" {
			row.Tenant = "default"
		}
		goodput := 0
		for _, f := range sys.tenantFuncs[tenant] {
			row.Served += f.Served()
			goodput += f.Rec.Goodput()
		}
		if seconds > 0 {
			row.GoodputRPS = float64(goodput) / seconds
		}
		g.Submitted += row.Submitted
		g.Admitted += row.Admitted
		g.Shed += row.Shed
		g.Tenants = append(g.Tenants, row)
	}
	return g
}
