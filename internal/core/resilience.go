package core

import (
	"slices"

	"dilu/internal/instance"
	"dilu/internal/sim"
)

// Request resilience: hedged dispatch for deadline-critical requests.
// A hedge races a speculative duplicate on a second instance; hedges
// draw from a per-tenant budget (the SRE retry-budget rule: amplified
// traffic is bounded to a fraction of admitted traffic, so duplicates
// cannot melt an already-degraded fleet), and the race is accounted so
// the request-conservation invariant extends to at-most-once *service*:
// a request may be delivered twice, but exactly one copy is ever
// recorded as served.

// HedgeBudget caps per-tenant amplification: hedges may not exceed this
// fraction of the tenant's admitted requests, so they add at most a
// quarter more load to a degraded fleet. The hedge's timing is no
// constant: it fires SLO/2 after admission, by each function's own SLO
// (Function.Rec.SLO()).
const HedgeBudget = 0.25

// ResilienceStats counts one function's mitigation outcomes.
type ResilienceStats struct {
	// Hedges counts speculative duplicates dispatched; HedgeWins counts
	// races the hedge copy won; HedgeDiscards counts loser completions
	// suppressed by the at-most-once gate.
	Hedges        int64
	HedgeWins     int64
	HedgeDiscards int64
}

// resilience is the per-function request-resilience state. Allocated
// only when Config.Hedge is set; every hot path guards on nil.
type resilience struct {
	// done marks request IDs whose service was recorded — the
	// at-most-once gate. len(done) == Function.Served() is invariant.
	done map[int64]bool
	// racing marks request IDs whose hedge race is unresolved: each
	// has one live duplicate copy beyond the first, so the conservation
	// invariant checks recount == in-flight + len(racing).
	racing map[int64]bool
	stats  ResilienceStats
}

func newResilience() *resilience {
	return &resilience{done: make(map[int64]bool), racing: make(map[int64]bool)}
}

// budgetSpent reports whether the tenant's hedges have reached
// HedgeBudget of its admitted requests.
func budgetSpent(ts *TenantStats) bool {
	return float64(ts.Hedges) >= HedgeBudget*float64(ts.Admitted)
}

// ExtraCopies returns live duplicate delivery copies (hedge races in
// flight); the conservation invariant adds it to the ledger in-flight
// count before comparing against the recount.
func (f *Function) ExtraCopies() int64 {
	if f.res == nil {
		return 0
	}
	return int64(len(f.res.racing))
}

// UniqueServed returns the number of distinct requests recorded as
// served; ok is false when hedging is off (no duplicate tracking —
// every service is unique by construction).
func (f *Function) UniqueServed() (n int64, ok bool) {
	if f.res == nil {
		return 0, false
	}
	return int64(len(f.res.done)), true
}

// ResilienceStats returns the function's mitigation counters (zero
// value when hedging is off).
func (f *Function) ResilienceStats() ResilienceStats {
	if f.res == nil {
		return ResilienceStats{}
	}
	return f.res.stats
}

// armHedge schedules the hedge check for a deadline-carrying request.
func (f *Function) armHedge(req instance.Request, now sim.Time) {
	f.sys.Eng.Schedule(now+f.Rec.SLO()/2, func(at sim.Time) {
		f.fireHedge(req, at)
	})
}

// fireHedge dispatches the speculative duplicate: only when the primary
// copy is still held by some instance (a pending-queued primary means
// there is no capacity for a duplicate either), a *different* instance
// exists to race it on, and the tenant budget allows.
func (f *Function) fireHedge(req instance.Request, at sim.Time) {
	r := f.res
	if r.done[req.ID] || r.racing[req.ID] {
		return
	}
	ts := f.sys.tenantStats(req.Tenant)
	if budgetSpent(ts) {
		return
	}
	holder := f.holderOf(req.ID)
	if holder == nil {
		return
	}
	in := f.pickLeastLoadedExcept(holder)
	if in == nil {
		return
	}
	r.racing[req.ID] = true
	r.stats.Hedges++
	ts.Hedges++
	hedge := req
	hedge.Hedge = true
	hedge.Dispatch = at
	f.enqueue(in, hedge)
}

// onRequestComplete is the instance completion hook (installed on every
// instance when hedging is on). First completion of a request ID
// wins and is recorded; any later copy is discarded unrecorded. The
// winner also cancels a still-queued loser immediately instead of
// letting it burn a batch slot.
func (f *Function) onRequestComplete(req instance.Request, at sim.Time) bool {
	r := f.res
	if r.done[req.ID] {
		r.stats.HedgeDiscards++
		delete(r.racing, req.ID)
		return false
	}
	r.done[req.ID] = true
	if r.racing[req.ID] {
		if req.Hedge {
			r.stats.HedgeWins++
		}
		if f.stealCopy(req.ID) {
			delete(r.racing, req.ID)
		}
		// An executing loser resolves at its own completion via the
		// done gate above.
	}
	return true
}

// stealCopy removes one waiting copy of request id from wherever it
// queues — the gateway pending queue or an active instance — and
// reports whether it found one. Executing copies are not stealable, and
// a keep-alive entry holds no other kind: scale-in drops its queue, and
// the gateway enqueues only on active instances.
func (f *Function) stealCopy(id int64) bool {
	for i, req := range f.pending {
		if req.ID == id {
			f.pending = slices.Delete(f.pending, i, i+1)
			return true
		}
	}
	for _, si := range f.active {
		if si.inst.StealQueued(id) {
			return true
		}
	}
	return false
}

// holderOf returns the instance currently holding (queued or executing)
// a copy of request id, or nil.
func (f *Function) holderOf(id int64) instance.Server {
	for _, si := range f.active {
		if si.inst.HasRequest(id) {
			return si.inst
		}
	}
	for _, w := range f.warm {
		if w.dead || w.reused {
			continue
		}
		if w.si.inst.HasRequest(id) {
			return w.si.inst
		}
	}
	return nil
}

// pickLeastLoadedExcept is pickLeastLoaded skipping one instance — the
// hedge dispatch rule (racing a copy on the same straggler is no race).
func (f *Function) pickLeastLoadedExcept(skip instance.Server) instance.Server {
	var best instance.Server
	bestLoad := 1 << 30
	for _, si := range f.active {
		if si.inst == skip || !si.inst.Active() {
			continue
		}
		if l := si.inst.Load(); l < bestLoad {
			bestLoad = l
			best = si.inst
		}
	}
	return best
}
