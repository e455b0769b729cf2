package core

import (
	"dilu/internal/instance"
	"dilu/internal/sim"
)

// Request resilience: per-request timeouts with capped-exponential-
// backoff retries, and hedged dispatch for deadline-critical requests.
// Both mitigations ride the gateway ledger — retries and hedges draw
// from a per-tenant budget (the SRE retry-budget rule: amplified
// traffic is bounded to a fraction of admitted traffic, so retry storms
// cannot melt an already-degraded fleet) — and both are accounted so
// the request-conservation invariant extends to at-most-once *service*:
// a request may be delivered many times, but exactly one copy is ever
// recorded as served.

// The fixed resilience parameters. Timings are not constants: they
// scale with each function's own SLO (Function.Rec.SLO()) — a timeout
// fires 2·SLO after admission, backoff starts at SLO/4 and is capped at
// 2·SLO (Backoff), and a hedge fires SLO/2 after admission.
const (
	// maxAttempts bounds deliveries per request including the first. The
	// third starts 4.75·SLO after admission at the earliest, long past
	// the SLO, so a fourth would only add load.
	maxAttempts = 3
	// RetryBudget caps per-tenant amplification: retries + hedges may
	// not exceed this fraction of the tenant's admitted requests, so
	// mitigations add at most a quarter more load to a degraded fleet.
	RetryBudget = 0.25
)

// Backoff returns the wait before delivering attempt n (n ≥ 1) of a
// request whose function has the given SLO: SLO/4·2^(n-1), capped at
// 2·SLO. It is a pure function of its arguments — no jitter — so runs
// are deterministic; the property tests pin this schedule.
func Backoff(slo sim.Duration, attempt int) sim.Duration {
	d, limit := slo/4, 2*slo
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// ResilienceStats counts one function's mitigation outcomes.
type ResilienceStats struct {
	// Retries counts redeliveries, one per timeout that stole a queued
	// copy; RetrySuccess counts requests whose recorded completion came
	// from a redelivered copy.
	Retries      int64
	RetrySuccess int64
	// Hedges counts speculative duplicates dispatched; HedgeWins counts
	// races the hedge copy won; HedgeDiscards counts loser completions
	// suppressed by the at-most-once gate.
	Hedges        int64
	HedgeWins     int64
	HedgeDiscards int64
}

// resilience is the per-function request-resilience state. Allocated
// only when Config.Retry or Config.Hedge is set; every hot path guards
// on nil.
type resilience struct {
	// done marks request IDs whose service was recorded — the
	// at-most-once gate. len(done) == Function.Served() is invariant.
	done map[int64]bool
	// copies tracks live delivery copies per request, present only
	// while a hedge race is unresolved (value always 2).
	copies map[int64]int
	// parked counts requests sitting in backoff — in no queue, yet
	// still in flight for the conservation ledger.
	parked int64
	// extra counts live duplicate copies beyond the first: the
	// conservation invariant checks recount == in-flight + extra.
	extra int64
	stats ResilienceStats
}

func newResilience() *resilience {
	return &resilience{done: make(map[int64]bool), copies: make(map[int64]int)}
}

// budgetSpent reports whether the tenant's retries and hedges have
// reached RetryBudget of its admitted requests.
func budgetSpent(ts *TenantStats) bool {
	return float64(ts.Retries+ts.Hedges) >= RetryBudget*float64(ts.Admitted)
}

// dropCopy settles a resolved hedge race: one duplicate copy left the
// system (stolen, discarded, or dropped in redispatch).
func (r *resilience) dropCopy(id int64) {
	if r.copies[id] > 0 {
		r.extra--
		delete(r.copies, id)
	}
}

// ExtraCopies returns live duplicate delivery copies (hedge races in
// flight); the conservation invariant adds it to the ledger in-flight
// count before comparing against the recount.
func (f *Function) ExtraCopies() int64 {
	if f.res == nil {
		return 0
	}
	return f.res.extra
}

// UniqueServed returns the number of distinct requests recorded as
// served; ok is false when resilience is off (no duplicate tracking —
// every service is unique by construction).
func (f *Function) UniqueServed() (n int64, ok bool) {
	if f.res == nil {
		return 0, false
	}
	return int64(len(f.res.done)), true
}

// ResilienceStats returns the function's mitigation counters (zero
// value when resilience is off).
func (f *Function) ResilienceStats() ResilienceStats {
	if f.res == nil {
		return ResilienceStats{}
	}
	return f.res.stats
}

// armResilience schedules the timeout and hedge checks for a freshly
// admitted request. Timers are per attempt, not per enqueue: an abort/
// redispatch keeps the original clock running, so a request's timeout
// covers its total time in the system.
func (f *Function) armResilience(req instance.Request, now sim.Time) {
	if f.sys.cfg.Retry {
		f.armTimeout(req, now)
	}
	if f.sys.cfg.Hedge && req.Deadline > 0 {
		f.armHedge(req, now)
	}
}

// armTimeout schedules the timeout check for the given delivery
// attempt. Exactly one timer exists per attempt: a retry arms the next
// attempt's timer, so a fired timer is never stale.
func (f *Function) armTimeout(req instance.Request, now sim.Time) {
	f.sys.Eng.Schedule(now+2*f.Rec.SLO(), func(at sim.Time) {
		f.fireTimeout(req.ID, req.Tenant, at)
	})
}

// fireTimeout is the timeout action: if the request is still waiting in
// some queue (gateway pending or an instance's local queue) and the
// tenant's retry budget allows, steal that copy and redeliver it after
// backoff. An executing copy is left alone — its work is sunk and a
// batch completes within bounded time; killing it buys nothing the
// hedge path doesn't do better.
func (f *Function) fireTimeout(id int64, tenant string, at sim.Time) {
	r := f.res
	if r.done[id] {
		return
	}
	ts := f.sys.tenantStats(tenant)
	if budgetSpent(ts) {
		return // the request keeps waiting where it is
	}
	req, ok := f.stealCopy(id)
	if !ok {
		return // executing or parked: nothing to steal
	}
	r.stats.Retries++
	ts.Retries++
	req.Attempt++
	r.parked++
	f.sys.Eng.After(Backoff(f.Rec.SLO(), req.Attempt), func(at sim.Time) {
		f.unpark(req, at)
	})
}

// unpark redelivers a backed-off request and arms the next attempt's
// timeout while attempts remain.
func (f *Function) unpark(req instance.Request, now sim.Time) {
	r := f.res
	r.parked--
	if r.done[req.ID] {
		r.dropCopy(req.ID) // a hedge twin completed during the backoff
		return
	}
	req.Dispatch = now
	if in := f.pickLeastLoaded(); in != nil {
		f.enqueue(in, req)
	} else {
		f.pending = append(f.pending, req)
	}
	if req.Attempt+1 < maxAttempts {
		f.armTimeout(req, now)
	}
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
	if r.done[req.ID] || r.copies[req.ID] > 0 {
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
	r.copies[req.ID] = 2
	r.extra++
	r.stats.Hedges++
	ts.Hedges++
	hedge := req
	hedge.Hedge = true
	hedge.Dispatch = at
	f.enqueue(in, hedge)
}

// onRequestComplete is the instance completion hook (installed on every
// instance when resilience is on). First completion of a request ID
// wins and is recorded; any later copy is discarded unrecorded. The
// winner also cancels a still-queued loser immediately instead of
// letting it burn a batch slot.
func (f *Function) onRequestComplete(req instance.Request, at sim.Time) bool {
	r := f.res
	if r.done[req.ID] {
		r.stats.HedgeDiscards++
		r.dropCopy(req.ID)
		return false
	}
	r.done[req.ID] = true
	if req.Attempt > 0 {
		r.stats.RetrySuccess++
	}
	if r.copies[req.ID] > 1 {
		if req.Hedge {
			r.stats.HedgeWins++
		}
		if _, ok := f.stealCopy(req.ID); ok {
			r.dropCopy(req.ID)
		}
		// An executing loser resolves at its own completion via the
		// done gate above.
	}
	return true
}

// stealCopy removes one waiting copy of request id from wherever it
// queues: the gateway pending queue, an active instance, or a
// keep-alive instance still draining. Executing copies are not
// stealable.
func (f *Function) stealCopy(id int64) (instance.Request, bool) {
	for i, req := range f.pending {
		if req.ID == id {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return req, true
		}
	}
	for _, si := range f.active {
		if req, ok := si.inst.StealQueued(id); ok {
			return req, true
		}
	}
	for _, w := range f.warm {
		if w.dead || w.reused {
			continue
		}
		if req, ok := w.si.inst.StealQueued(id); ok {
			return req, true
		}
	}
	return instance.Request{}, false
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
