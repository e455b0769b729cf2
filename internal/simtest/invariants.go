// Package simtest provides invariant checkers for the simulation kernel
// and the core world loop — the testing counterpart of the PR-2 active-set
// refactor. Checkers attach through core.Config.Invariants (or globally
// via core.SetDefaultInvariantFactory from a TestMain) and verify, at
// every fired tick and at the run horizon, that the incremental indexes
// the hot path trusts — GPU quota sums, device memory accounting, tick
// active sets — still agree with the ground truth recomputed from first
// principles.
//
// Checkers are read-only and hold any per-run state (the monotone-time
// watermark) in closures, so every System must get fresh instances:
// always install the Checkers factory, never a shared slice.
package simtest

import (
	"fmt"
	"math"

	"dilu/internal/cluster"
	"dilu/internal/core"
	"dilu/internal/gpu"
	"dilu/internal/instance"
	"dilu/internal/sim"
)

// quotaEps absorbs float accumulation drift in quota sums: reservations
// are added and subtracted in varying order over thousands of
// placements, which is exactly the drift the conservation check must
// tolerate while still catching real leaks (a leaked placement is off
// by whole quota units, not 1e-9ths).
const quotaEps = 1e-6

// Checkers returns one fresh instance of every invariant, ready for
// core.Config.Invariants or core.SetDefaultInvariantFactory.
func Checkers() []core.Invariant {
	return []core.Invariant{
		QuotaConservation(),
		NoNegativeResidents(),
		MonotoneTime(),
		ActiveSetConsistency(),
		RetiredGPUQuiescence(),
		ClassQuotaConservation(),
		RequestConservation(),
		KVConservation(),
	}
}

// KVConservation verifies the token-level KV-cache ledger at every
// granularity, for every run (zero everywhere unless an LLM function is
// deployed):
//
//   - per GPU, the KV slice recorded on placements sums to the GPU's
//     KVUsedMB aggregate (ReserveKV/ReleaseKV/Remove maintain both);
//   - KVUsedMB is non-negative and never exceeds the memory actually
//     reserved on the GPU — KV is a slice of MemUsedMB, not an addition;
//   - per device, the GPU's KV aggregate equals a from-scratch recount
//     over every live LLM instance's resident sequences (each sequence's
//     charge split evenly over its stages, the runtime's own split), so
//     no interleaving of admission, decode growth, preemption, abort, or
//     teardown can leak or double-free a token's worth of cache.
func KVConservation() core.Invariant {
	return core.Invariant{
		Name: "kv-conservation",
		Check: func(sys *core.System, now sim.Time) error {
			recount := map[*gpu.Device]float64{}
			for _, f := range sys.Functions() {
				f.VisitInstances(func(in instance.Server, warm bool) {
					l, ok := in.(*instance.LLM)
					if !ok {
						return
					}
					per := l.KVUsedMB() / float64(len(l.Stages))
					for _, st := range l.Stages {
						recount[st.Res.Device()] += per
					}
				})
			}
			for _, g := range sys.Clu.GPUs() {
				var pkv float64
				for _, p := range g.Placements {
					pkv += p.KVMB
				}
				if math.Abs(pkv-g.KVUsedMB) > quotaEps {
					return fmt.Errorf("%s: KV placement ledger drifted: GPU %.6f ≠ Σ placements %.6f",
						g.ID, g.KVUsedMB, pkv)
				}
				if g.KVUsedMB < -quotaEps {
					return fmt.Errorf("%s: negative KV reservation %.6f", g.ID, g.KVUsedMB)
				}
				if g.KVUsedMB > g.MemUsedMB+quotaEps {
					return fmt.Errorf("%s: KV reservation %.6f exceeds reserved memory %.6f",
						g.ID, g.KVUsedMB, g.MemUsedMB)
				}
				if g.Dev != nil {
					if got := recount[g.Dev]; math.Abs(got-g.KVUsedMB) > quotaEps {
						return fmt.Errorf("%s: KV ledger drifted: GPU %.6f ≠ Σ live sequences %.6f",
							g.ID, g.KVUsedMB, got)
					}
				}
			}
			return nil
		},
	}
}

// RequestConservation verifies the gateway's admission ledger against
// the serving plane, per function and per tenant:
//
//   - submitted = admitted + shed (the gateway never loses a decision);
//   - admitted = served + in-flight, where in-flight is recounted from
//     first principles — gateway pending plus every instance's queued
//     and batched requests, including keep-alive entries; a teardown,
//     eviction or sweep that dropped requests instead of redispatching
//     them is caught the tick it happens;
//   - the tenant ledgers' totals equal the function ledgers' totals (a
//     request is accounted against exactly one tenant and one function,
//     even when its request-level tenant differs from the function's
//     deployment tenant).
//
// Under hedging the conservation equation gains the duplicate-copy term
// — recount = in-flight + extra live copies — and the at-most-once-
// service check arms: distinct served request IDs must equal recorded
// service count, so no interleaving of abort and hedge ever records the
// same request twice. The tenant ledgers' hedge totals must likewise
// match the per-function hedge stats (the budget is charged exactly
// once per hedge).
func RequestConservation() core.Invariant {
	return core.Invariant{
		Name: "request-conservation",
		Check: func(sys *core.System, now sim.Time) error {
			var fSub, fAdm, fShed, fHedge int64
			for _, f := range sys.Functions() {
				sub, adm, shed := f.GatewayCounts()
				if sub != adm+shed {
					return fmt.Errorf("%s: gateway ledger leak: submitted %d ≠ admitted %d + shed %d",
						f.Name, sub, adm, shed)
				}
				inflight := f.InFlightCount()
				if inflight < 0 {
					return fmt.Errorf("%s: negative in-flight ledger: admitted %d < served %d",
						f.Name, adm, f.Served())
				}
				if recount, extra := f.RecountInFlight(), f.ExtraCopies(); recount != inflight+extra {
					return fmt.Errorf("%s: in-flight drifted: ledger %d + %d extra copies, ground truth %d (pending+queued+batched)",
						f.Name, inflight, extra, recount)
				}
				if unique, ok := f.UniqueServed(); ok && unique != f.Served() {
					return fmt.Errorf("%s: at-most-once service violated: %d distinct requests served, %d services recorded",
						f.Name, unique, f.Served())
				}
				fHedge += f.ResilienceStats().Hedges
				fSub += sub
				fAdm += adm
				fShed += shed
			}
			var tSub, tAdm, tShed, tHedge int64
			for _, ts := range sys.GatewayTenantStats() {
				if ts.Submitted != ts.Admitted+ts.Shed {
					return fmt.Errorf("tenant %q: gateway ledger leak: submitted %d ≠ admitted %d + shed %d",
						ts.Tenant, ts.Submitted, ts.Admitted, ts.Shed)
				}
				tSub += ts.Submitted
				tAdm += ts.Admitted
				tShed += ts.Shed
				tHedge += ts.Hedges
			}
			if tSub != fSub || tAdm != fAdm || tShed != fShed {
				return fmt.Errorf("tenant/function ledgers disagree: tenants %d/%d/%d, functions %d/%d/%d (submitted/admitted/shed)",
					tSub, tAdm, tShed, fSub, fAdm, fShed)
			}
			if tHedge != fHedge {
				return fmt.Errorf("hedge-budget ledgers disagree: tenants %d, functions %d (hedges)",
					tHedge, fHedge)
			}
			return nil
		},
	}
}

// QuotaConservation verifies the cluster's incremental bookkeeping
// against ground truth: every GPU's SM request/limit and memory sums
// must equal the recomputation over its placements, memory must fit the
// card, the active-GPU index must match placement state exactly, and a
// GPU's device-side memory reservation must mirror the placement-side
// one.
func QuotaConservation() core.Invariant {
	return core.Invariant{
		Name: "quota-conservation",
		Check: func(sys *core.System, now sim.Time) error {
			clu := sys.Clu
			occupied := 0
			for _, g := range clu.GPUs() {
				var req, lim, treq, mem float64
				for _, p := range g.Placements {
					req += p.Req
					lim += p.Lim
					if p.TrueReq > 0 {
						treq += p.TrueReq
					} else {
						treq += p.Req
					}
					mem += p.MemMB
				}
				if math.Abs(req-g.SumReq) > quotaEps || math.Abs(lim-g.SumLim) > quotaEps ||
					math.Abs(treq-g.SumTrueReq) > quotaEps || math.Abs(mem-g.MemUsedMB) > quotaEps {
					return fmt.Errorf("%s: quota sums drifted: req %.9f≠%.9f lim %.9f≠%.9f true %.9f≠%.9f mem %.3f≠%.3f",
						g.ID, g.SumReq, req, g.SumLim, lim, g.SumTrueReq, treq, g.MemUsedMB, mem)
				}
				if g.MemUsedMB > g.MemCapMB+quotaEps {
					return fmt.Errorf("%s: memory over capacity: %.1f > %.1f MB", g.ID, g.MemUsedMB, g.MemCapMB)
				}
				if g.Active() {
					occupied++
				}
				if g.Dev != nil {
					var devMem float64
					for _, r := range g.Dev.Residents() {
						devMem += r.MemMB
					}
					if math.Abs(devMem-g.Dev.MemUsedMB()) > quotaEps {
						return fmt.Errorf("%s: device memory drifted: %.3f ≠ Σ residents %.3f", g.ID, g.Dev.MemUsedMB(), devMem)
					}
					if math.Abs(g.Dev.MemUsedMB()-g.MemUsedMB) > quotaEps {
						return fmt.Errorf("%s: device/placement memory split brain: dev %.3f vs placements %.3f",
							g.ID, g.Dev.MemUsedMB(), g.MemUsedMB)
					}
				}
			}
			if occupied != clu.OccupiedCount() {
				return fmt.Errorf("occupied-GPU index drifted: index %d, ground truth %d", clu.OccupiedCount(), occupied)
			}
			n, prev := 0, -1
			for g := range clu.ActiveGPUs() {
				if !g.Active() {
					return fmt.Errorf("active-GPU set holds idle GPU %s", g.ID)
				}
				if g.Pos() <= prev {
					return fmt.Errorf("active-GPU set out of inventory order at %s", g.ID)
				}
				n, prev = n+1, g.Pos()
			}
			if n != occupied {
				return fmt.Errorf("active-GPU set has %d entries, ground truth %d", n, occupied)
			}
			return nil
		},
	}
}

// NoNegativeResidents verifies device-side execution state: resident
// counts, pending block demand, token grants and memory can never go
// negative, and a detached resident can never linger on a device.
func NoNegativeResidents() core.Invariant {
	return core.Invariant{
		Name: "no-negative-residents",
		Check: func(sys *core.System, now sim.Time) error {
			for _, g := range sys.Clu.GPUs() {
				if g.Dev == nil {
					continue
				}
				if g.Dev.MemUsedMB() < -quotaEps {
					return fmt.Errorf("%s: negative device memory %.3f", g.ID, g.Dev.MemUsedMB())
				}
				if got, want := g.Dev.ResidentCount(), len(g.Dev.Residents()); got != want {
					return fmt.Errorf("%s: resident count %d ≠ list length %d", g.ID, got, want)
				}
				for _, r := range g.Dev.Residents() {
					if r.Pending() < 0 {
						return fmt.Errorf("%s/%s: negative pending demand %.3f", g.ID, r.ID, r.Pending())
					}
					if r.Grant() < 0 {
						return fmt.Errorf("%s/%s: negative token grant %.3f", g.ID, r.ID, r.Grant())
					}
					if r.MemMB < 0 {
						return fmt.Errorf("%s/%s: negative resident memory %.3f", g.ID, r.ID, r.MemMB)
					}
				}
			}
			return nil
		},
	}
}

// RetiredGPUQuiescence verifies the churn lifecycle's placement
// contract: a failed GPU holds no placements and no device residents
// (FailNode evicts, the serving plane detaches), and a draining or
// quarantined GPU's placement set only ever shrinks — new work never
// lands on a device on its way out, whether churn or the health
// monitor retired it. Drain-set watermarks live in the closure: one
// instance per system.
func RetiredGPUQuiescence() core.Invariant {
	draining := map[string]map[string]bool{} // gpu ID → instance IDs seen at drain time
	return core.Invariant{
		Name: "retired-gpu-quiescence",
		Check: func(sys *core.System, now sim.Time) error {
			for _, g := range sys.Clu.GPUs() {
				switch g.Health() {
				case cluster.Failed:
					delete(draining, g.ID)
					if len(g.Placements) > 0 {
						return fmt.Errorf("%s: failed GPU still holds %d placements", g.ID, len(g.Placements))
					}
					if g.Dev != nil && g.Dev.ResidentCount() > 0 {
						return fmt.Errorf("%s: failed GPU still executes %d residents", g.ID, g.Dev.ResidentCount())
					}
				case cluster.Draining, cluster.Quarantined:
					seen, ok := draining[g.ID]
					if !ok {
						// First observation since the drain began: the
						// placements present now are the grandfathered set.
						seen = make(map[string]bool, len(g.Placements))
						for _, p := range g.Placements {
							seen[p.Instance] = true
						}
						draining[g.ID] = seen
						continue
					}
					for _, p := range g.Placements {
						if !seen[p.Instance] {
							return fmt.Errorf("%s: draining GPU gained placement %s", g.ID, p.Instance)
						}
					}
				default:
					delete(draining, g.ID)
				}
			}
			return nil
		},
	}
}

// ClassQuotaConservation verifies the heterogeneity bookkeeping per
// capacity class: class membership covers the whole inventory and stays
// constant (fail/drain/join must not migrate GPUs between classes), the
// per-class ΣReq aggregates equal a recomputation from placements, and
// the capacity-weighted occupancy the cost accounting integrates equals
// the sum over active GPUs.
func ClassQuotaConservation() core.Invariant {
	var wantTotals []int // per-class GPU counts at first observation
	return core.Invariant{
		Name: "class-quota-conservation",
		Check: func(sys *core.System, now sim.Time) error {
			stats := sys.Clu.ClassStats()
			if wantTotals == nil {
				for _, st := range stats {
					wantTotals = append(wantTotals, st.Total)
				}
			}
			if len(stats) != len(wantTotals) {
				return fmt.Errorf("class count changed: %d, want %d", len(stats), len(wantTotals))
			}
			total := 0
			for i, st := range stats {
				if st.Total != wantTotals[i] {
					return fmt.Errorf("class %s: membership drifted: %d GPUs, want %d", st.Name, st.Total, wantTotals[i])
				}
				if st.Capacity <= 0 {
					return fmt.Errorf("class %s: non-positive capacity %v", st.Name, st.Capacity)
				}
				total += st.Total
			}
			if total != len(sys.Clu.GPUs()) {
				return fmt.Errorf("classes cover %d GPUs, inventory has %d", total, len(sys.Clu.GPUs()))
			}
			sumReq := make([]float64, len(stats))
			occupied := make([]int, len(stats))
			var occCap float64
			for _, g := range sys.Clu.GPUs() {
				idx := classIndexOf(stats, g)
				if idx < 0 {
					return fmt.Errorf("%s: class %q unknown to ClassStats", g.ID, g.Class)
				}
				for _, p := range g.Placements {
					sumReq[idx] += p.Req
				}
				if g.Active() {
					occupied[idx]++
					occCap += g.Capacity
				}
			}
			for i, st := range stats {
				if math.Abs(sumReq[i]-st.SumReq) > quotaEps {
					return fmt.Errorf("class %s: ΣReq drifted: index %.9f, ground truth %.9f", st.Name, st.SumReq, sumReq[i])
				}
				if occupied[i] != st.Occupied {
					return fmt.Errorf("class %s: occupancy drifted: index %d, ground truth %d", st.Name, st.Occupied, occupied[i])
				}
			}
			if math.Abs(occCap-sys.Clu.OccupiedCapacity()) > quotaEps {
				return fmt.Errorf("capacity-weighted occupancy drifted: index %.9f, ground truth %.9f",
					sys.Clu.OccupiedCapacity(), occCap)
			}
			return nil
		},
	}
}

func classIndexOf(stats []cluster.ClassStat, g *cluster.GPU) int {
	for i, st := range stats {
		if st.Name == g.Class {
			return i
		}
	}
	return -1
}

// MonotoneTime verifies the virtual clock never runs backwards across
// checks and that checks observe the engine's own Now. State (the
// watermark) lives in the closure — one instance per system.
func MonotoneTime() core.Invariant {
	last := sim.Time(-1)
	return core.Invariant{
		Name: "monotone-virtual-time",
		Check: func(sys *core.System, now sim.Time) error {
			if now < last {
				return fmt.Errorf("virtual time went backwards: %s after %s", now, last)
			}
			if eng := sys.Eng.Now(); now > eng {
				return fmt.Errorf("check time %s ahead of engine clock %s", now, eng)
			}
			last = now
			return nil
		},
	}
}

// ActiveSetConsistency verifies the tick loop's active sets against the
// busy state they index:
//
//   - every busy instance runtime (queued or in-flight inference work,
//     an unfinished active training job) is in the instance active set —
//     the direction that must hold at every instant, since a busy
//     runtime outside the set stops being ticked and its work stalls
//     silently (the converse, a lingering idle member, is legal between
//     sweeps);
//   - the set's list and index agree on membership size;
//   - for every GPU, having registered clients, having residents on its
//     device and its manager being in the tick loop's manager set are
//     the same fact — attach/detach maintain all three together, and
//     the tick loop runs both the token and the execution phase over
//     that one set, so a device with residents but a clientless manager
//     would stop executing.
func ActiveSetConsistency() core.Invariant {
	return core.Invariant{
		Name: "active-set-consistency",
		Check: func(sys *core.System, now sim.Time) error {
			list, index := sys.ActiveSetSizes()
			if list != index {
				return fmt.Errorf("instance active set split brain: list %d vs index %d", list, index)
			}
			var err error
			for _, f := range sys.Functions() {
				f.VisitInstances(func(in instance.Server, warm bool) {
					if err == nil && in.Busy() && !sys.InActiveSet(in) {
						err = fmt.Errorf("busy instance %s (warm=%v) missing from active set", in.InstID(), warm)
					}
				})
				if err != nil {
					return err
				}
			}
			for _, tj := range sys.Jobs() {
				if tj.Job != nil && tj.Job.Busy() && !sys.InActiveSet(tj.Job) {
					return fmt.Errorf("busy training job %s missing from active set", tj.Name)
				}
			}
			for _, g := range sys.Clu.GPUs() {
				m := sys.Manager(g)
				if m == nil || g.Dev == nil {
					continue
				}
				clients, residents := len(m.Clients()), g.Dev.ResidentCount()
				if inSet := sys.ManagerInActiveSet(m); (clients > 0) != inSet || (residents > 0) != inSet {
					return fmt.Errorf("%s: manager tick-set membership %v with %d clients and %d residents",
						g.ID, inSet, clients, residents)
				}
			}
			return nil
		},
	}
}
