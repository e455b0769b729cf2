package core

import (
	"slices"

	"dilu/internal/cluster"
	"dilu/internal/instance"
	"dilu/internal/sched"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// This file is the serving-plane side of cluster churn: node failures,
// drains, and joins arrive as scheduled events (ScheduleChurn) or direct
// calls, the cluster retires/restores the inventory slots, and the
// gateway turns evicted placements into rescheduling work — cold
// relaunches with cold-start accounting for failures, make-before-break
// migrations for drains, checkpoint-restart preemption for training.

// ChurnStats counts lifecycle events and their serving-plane fallout.
type ChurnStats struct {
	Failures int
	Drains   int
	Joins    int
	// EvictedInstances counts inference instances killed by failures
	// (each relaunched cold); MigratedInstances counts drain-driven
	// make-before-break replacements.
	EvictedInstances  int
	MigratedInstances int
	// PreemptedJobs counts training-job checkpoint-restarts.
	PreemptedJobs int
	// LostLaunches counts relaunch attempts that found no capacity (the
	// horizontal scaler retries on its own cadence afterwards).
	LostLaunches int
}

// ChurnStats returns the running churn counters.
func (sys *System) ChurnStats() ChurnStats { return sys.churn }

// ScheduleChurn replays a node-lifecycle schedule against the system.
// Events ride a single ScheduleSeries cursor — exactly like arrival
// traces — with timestamps relative to the current virtual
// time. The slice is cloned and sorted; callers may reuse theirs.
func (sys *System) ScheduleChurn(events []workload.ChurnEvent) {
	if len(events) == 0 {
		return
	}
	evs := slices.Clone(events)
	workload.SortChurn(evs)
	times := make([]sim.Time, len(evs))
	for i, ev := range evs {
		times[i] = ev.At
	}
	cursor := 0
	sys.Eng.ScheduleSeries(sys.Eng.Now(), times, func(now sim.Time) {
		ev := evs[cursor]
		cursor++
		switch ev.Kind {
		case workload.ChurnFail:
			sys.FailNode(ev.Node)
		case workload.ChurnDrain:
			sys.DrainNode(ev.Node)
		case workload.ChurnJoin:
			sys.JoinNode(ev.Node)
		}
	})
}

// FailNode fails one node abruptly: the cluster evicts every placement
// on its GPUs, then the gateway reschedules the fallout — inference
// instances relaunch cold elsewhere (counted in Function.ColdStarts,
// requests requeued with their original arrival stamps), training jobs
// preempt and restart on fresh workers.
func (sys *System) FailNode(idx int) {
	node := nodeAt(sys, idx)
	if node == nil {
		return
	}
	sys.churn.Failures++
	sys.Clu.FailNode(node)
	now := sys.Eng.Now()
	for _, f := range sys.funcs {
		f.sweepWarmRetired()
		f.evictFailed(now)
	}
	for _, tj := range sys.jobs {
		tj.preemptRetired(true)
	}
}

// DrainNode stops new placements on a node and migrates its served
// instances make-before-break: a cold replacement launches elsewhere
// first, and the drained instance retires only once the replacement's
// cold start completes — the zero-downtime upgrade path.
func (sys *System) DrainNode(idx int) {
	node := nodeAt(sys, idx)
	if node == nil {
		return
	}
	sys.churn.Drains++
	sys.Clu.DrainNode(node)
	for _, f := range sys.funcs {
		f.sweepWarmRetired()
		f.migrateRetired()
	}
	for _, tj := range sys.jobs {
		tj.preemptRetired(false)
	}
}

// JoinNode returns a failed or drained node to service.
func (sys *System) JoinNode(idx int) {
	node := nodeAt(sys, idx)
	if node == nil {
		return
	}
	sys.churn.Joins++
	sys.Clu.JoinNode(node)
}

func nodeAt(sys *System, idx int) *cluster.Node {
	if idx < 0 || idx >= len(sys.Clu.Nodes) {
		return nil
	}
	return sys.Clu.Nodes[idx]
}

// sweepWarmRetired tears down keep-alive entries parked on retired GPUs
// before any relaunch can reuse them (a failed GPU's reservations are
// already gone; a draining one must empty out). A swept instance may
// still be finishing the batch it carried into keep-alive; that work is
// aborted and handed back to the gateway like any other eviction —
// request conservation holds across churn.
func (f *Function) sweepWarmRetired() {
	now := f.sys.Eng.Now()
	for i := len(f.warm) - 1; i >= 0; i-- {
		w := f.warm[i]
		if w.dead || w.reused || !w.si.dec.OnRetiredGPU() {
			continue
		}
		w.dead = true
		f.warm = append(f.warm[:i], f.warm[i+1:]...)
		f.teardown(w.si, now)
	}
}

// evictFailed kills every served instance touching a failed GPU: its
// queued and in-flight requests go back to the gateway (original Arrive
// stamps — requeued requests pay their lost work in recorded latency),
// the stages detach, and a cold replacement launches immediately.
func (f *Function) evictFailed(now sim.Time) {
	for i := len(f.active) - 1; i >= 0; i-- {
		si := f.active[i]
		if !si.dec.OnFailedGPU() {
			continue
		}
		f.active = append(f.active[:i], f.active[i+1:]...)
		f.sys.churn.EvictedInstances++
		si.inst.SetActive(false)
		f.teardown(si, now)
		if _, err := f.launch(true); err != nil {
			f.sys.churn.LostLaunches++
		}
	}
}

// migrateRetired launches a cold replacement for every served instance
// on a retired (draining) GPU and schedules the old instance's
// retirement for when the replacement finishes cold-starting. If no
// replacement fits, the old instance keeps serving — the drain stalls
// rather than dropping capacity.
func (f *Function) migrateRetired() {
	for i := len(f.active) - 1; i >= 0; i-- {
		si := f.active[i]
		if si.migrating || !si.dec.OnRetiredGPU() {
			continue
		}
		if _, err := f.launch(true); err != nil {
			f.sys.churn.LostLaunches++
			continue
		}
		si.migrating = true
		f.sys.churn.MigratedInstances++
		// The replacement's activation event sits at now+ColdStart; one
		// millisecond later is strictly after it, so the handover never
		// leaves the function without the capacity it had.
		f.sys.Eng.After(f.Spec.ColdStart()+sim.Millisecond, func(at sim.Time) {
			f.retire(si, at)
		})
	}
}

// retire removes one served instance (if it is still serving — a
// failure may have raced the migration) and hands its outstanding work
// back to the gateway.
func (f *Function) retire(si *servedInstance, now sim.Time) {
	idx := slices.Index(f.active, si)
	if idx < 0 {
		return
	}
	f.active = append(f.active[:idx], f.active[idx+1:]...)
	si.inst.SetActive(false)
	f.teardown(si, now)
}

// redispatch returns aborted requests to the gateway: straight onto the
// least-loaded serving instance, or the pending queue when none serves.
// Under hedging, a copy whose request was already served elsewhere (a
// hedge loser caught in the abort) is dropped instead of redelivered —
// at-most-once service survives churn and fault interleavings.
func (f *Function) redispatch(reqs []instance.Request, now sim.Time) {
	for _, req := range reqs {
		if f.res != nil && f.res.done[req.ID] {
			delete(f.res.racing, req.ID)
			continue
		}
		if in := f.pickLeastLoaded(); in != nil {
			req.Dispatch = now
			f.enqueue(in, req)
		} else {
			f.pending = append(f.pending, req)
		}
	}
}

// preemptRetired restarts a training job whose workers touch retired
// GPUs: checkpoint-restart. Every stage detaches, the scheduler places
// a fresh worker set (on failure it retries every 5 s of virtual time —
// the wave may need to pass first), and the job resumes after a
// checkpoint-reload delay with its iteration progress intact.
func (tj *TrainingJob) preemptRetired(failedOnly bool) {
	if tj.Job == nil || tj.released || tj.Job.Finished() {
		return
	}
	hit := false
	check := func(d sched.Decision) bool {
		if failedOnly {
			return d.OnFailedGPU()
		}
		return d.OnRetiredGPU()
	}
	for _, d := range tj.decisions {
		if check(d) {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	tj.sys.churn.PreemptedJobs++
	workers := len(tj.decisions)
	for _, d := range tj.decisions {
		tj.sys.detachStages(d, tj.stagesOf(d))
		d.Release()
	}
	tj.decisions = nil
	tj.stages = nil
	tj.Job.SetActive(false)
	tj.replaceWorkers(workers)
}

// replaceWorkers places a fresh worker set for a preempted job,
// retrying on a fixed cadence while capacity is short.
func (tj *TrainingJob) replaceWorkers(workers int) {
	sys := tj.sys
	if tj.released || tj.Job.Finished() {
		return
	}
	decs, err := sys.scheduler.Schedule(sched.Request{
		Func: tj.Name, Profile: tj.Profile, Instances: workers,
	})
	if err != nil {
		sys.churn.LostLaunches++
		sys.Eng.After(5*sim.Second, func(sim.Time) { tj.replaceWorkers(workers) })
		return
	}
	var stages []instance.Stage
	stagesByDec := make([][]instance.Stage, 0, len(decs))
	for _, d := range decs {
		st, aerr := sys.attach(d, false, tj.Profile)
		if aerr != nil {
			for j, dd := range decs {
				if j < len(stagesByDec) {
					sys.detachStages(dd, stagesByDec[j])
				}
				dd.Release()
			}
			sys.Eng.After(5*sim.Second, func(sim.Time) { tj.replaceWorkers(workers) })
			return
		}
		stagesByDec = append(stagesByDec, st)
		stages = append(stages, st...)
	}
	tj.decisions = decs
	tj.stages = stages
	tj.Job.Preempt(stages)
	// Checkpoint reload before compute resumes — the training analogue
	// of the inference cold start.
	sys.Eng.After(tj.Spec.ColdStart(), func(sim.Time) {
		if tj.released || tj.Job.Finished() {
			return
		}
		tj.Job.SetActive(true)
		sys.wakeInst(tj.Job)
	})
}
