package core

import (
	"cmp"
	"fmt"
	"slices"

	"dilu/internal/cluster"
	"dilu/internal/instance"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/scaler"
	"dilu/internal/sched"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// InferOpts configures an inference function deployment.
type InferOpts struct {
	// Instances is the initial (pre-warmed) instance count; default 1.
	Instances int
	// Stages shards every instance over this many GPU fragments
	// (generative models default to their pipeline depth when 0).
	Stages int
	// Arrivals drives the function's request workload; nil means requests
	// are submitted manually via System.Submit. The engine pulls its
	// Stream one arrival at a time, bounded at arrivalBound after the
	// deployment.
	Arrivals workload.Arrivals
	// Profile overrides Dilu profiling when non-nil (used by ablations
	// and calibration experiments).
	Profile *profiler.Profile
	// Pin places instances on the given GPU indices directly, bypassing
	// the scheduler — used by the GPU-level collocation experiments that
	// fix placements by construction (Figures 7-11, 13, 14).
	Pin []int
	// NoScaler disables horizontal scaling for this function even when
	// the system has a scaler factory.
	NoScaler bool
	// StartCold launches the initial instances through the cold-start
	// path (serverless deploy semantics: the first requests queue behind
	// the launch and pay it on their critical path). Default false keeps
	// the historical pre-warmed deploy, where instances serve from t=0.
	StartCold bool
	// SLO overrides the model's default latency SLO for this deployment
	// (per-function targets for SLO-pressure scenarios); zero keeps the
	// model default.
	SLO sim.Duration
	// Tenant is the deployment's tenant identity: requests submitted
	// without an explicit tenant are accounted against it, and it labels
	// the function's row in the per-tenant SLO roll-up. Empty is the
	// default tenant (single-tenant runs keep their pre-tenant output).
	Tenant string
	// Priority and Deadline seed the requests the deployment's Arrivals
	// series submits: Priority orders the gateway's pending queue (higher
	// first), Deadline is each request's completion budget relative to
	// submission (deadline-aware admission and pending-queue ordering).
	Priority int
	Deadline sim.Duration
	// LLM switches the deployment to the token-level serving runtime
	// (continuous batching, per-sequence KV-cache accounting); nil keeps
	// the fixed-batch runtime. See LLMOpts.
	LLM *LLMOpts
}

// servedInstance couples a running inference instance with its
// reservation.
type servedInstance struct {
	inst   instance.Server
	dec    sched.Decision
	stages []instance.Stage
	// migrating marks an instance whose make-before-break replacement
	// is already launched and whose retirement is scheduled; a second
	// drain event inside the cold-start window must not migrate it
	// again.
	migrating bool
}

// warmEntry is a keep-alive (descheduled but resident) instance.
type warmEntry struct {
	si      *servedInstance
	expires sim.Time
	reused  bool
	dead    bool
}

// Function is one deployed serverless inference function.
type Function struct {
	sys     *System
	Name    string
	Spec    *model.Spec
	Profile profiler.Profile
	Stages  int

	Rec *metrics.LatencyRecorder

	// ColdStarts counts instance launches that paid a cold start after
	// initial deployment (the CSC of Table 3). Launches counts every
	// post-deployment launch including warm reuses.
	ColdStarts metrics.Counter
	Launches   metrics.Counter

	// RPSTrace and InstTrace are 1 Hz traces for Figure 12.
	RPSTrace  *metrics.Series
	InstTrace *metrics.Series

	policy scaler.Policy
	active []*servedInstance
	warm   []*warmEntry

	pending []instance.Request
	arrived int // arrivals in the current 1 s sample window

	// Gateway ledger (see gateway.go): submitted = admitted + shed, and
	// admitted = served + in-flight. The simtest request-conservation
	// invariant recounts these from the serving plane every tick.
	tenant    string
	submitted int64
	admitted  int64
	shed      int64

	// res is the hedging state; nil unless Config.Hedge is set. Every
	// touchpoint guards on it so a function without hedging allocates
	// none of it: a zero value would still need its two per-request maps.
	res *resilience

	// llm is the token-level serving state (profile, token recorder,
	// length sampler); nil whenever the deployment has no LLMOpts. The
	// nil is also the "serves tokens" test, and a fixed-batch function
	// allocates no token recorder.
	llm *llmState

	pinned []int
	seq    int
}

// Tenant returns the function's deployment tenant ("" = default).
func (f *Function) Tenant() string { return f.tenant }

// GatewayCounts returns the function's admission ledger.
func (f *Function) GatewayCounts() (submitted, admitted, shed int64) {
	return f.submitted, f.admitted, f.shed
}

// Lost always returns 0: every teardown hands its instance's
// outstanding work back to the gateway, so an admitted request is
// either served or still in flight. It stays for the benchmark module's
// conservation check, which still reads it.
func (f *Function) Lost() int64 { return 0 }

// InFlightCount is the ledger view of the function's in-system requests:
// admitted but not yet served. Fair-share admission treats it as the
// tenant's dominant-resource demand.
func (f *Function) InFlightCount() int64 { return f.admitted - f.Served() }

// RecountInFlight recounts in-flight requests from first principles —
// gateway pending plus every instance's queued and batched work,
// including keep-alive entries whose expiry fired but whose teardown
// kept the entry in the list. Hedge duplicates inflate the recount by
// design: the conservation invariant compares it every tick against
// InFlightCount() + ExtraCopies().
func (f *Function) RecountInFlight() int64 {
	n := int64(len(f.pending))
	for _, si := range f.active {
		n += int64(si.inst.Load())
	}
	for _, w := range f.warm {
		if !w.reused {
			n += int64(w.si.inst.Load())
		}
	}
	return n
}

// DeployInference profiles (unless overridden), places and pre-warms an
// inference function.
func (sys *System) DeployInference(name, modelName string, opts InferOpts) (*Function, error) {
	spec := model.ByName(modelName)
	var prof profiler.Profile
	if opts.Profile != nil {
		prof = *opts.Profile
	} else {
		prof = profiler.For(spec, profiler.RoleInference)
	}
	stages := opts.Stages
	if stages == 0 && spec.Generative {
		stages = spec.PipelineStages
	}
	if stages <= 0 {
		stages = 1
	}
	slo := spec.SLO
	if opts.SLO > 0 {
		slo = opts.SLO
	}
	f := &Function{
		sys: sys, Name: name, Spec: spec, Profile: prof, Stages: stages,
		Rec:       metrics.NewLatencyRecorder(name, slo),
		RPSTrace:  metrics.NewSeries(name + "/rps"),
		InstTrace: metrics.NewSeries(name + "/instances"),
		pinned:    opts.Pin,
		tenant:    opts.Tenant,
	}
	if opts.LLM != nil {
		st, err := newLLMState(sys, f, *opts.LLM)
		if err != nil {
			return nil, err
		}
		f.llm = st
		sys.llmDeployed = true
	}
	if sys.cfg.Hedge {
		f.res = newResilience()
	}
	if f.tenant != "" {
		f.Rec.SetTenant(f.tenant)
	}
	if sys.cfg.NewScaler != nil && !opts.NoScaler {
		f.policy = sys.cfg.NewScaler()
	}
	n := opts.Instances
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := f.launch(opts.StartCold); err != nil {
			return nil, err
		}
	}
	if opts.Arrivals != nil {
		// Arrival times are relative to the deployment moment: a
		// function deployed mid-run starts its trace fresh. The engine
		// pulls the cursor one arrival at a time from the function's own
		// RNG fork, so arrivals are drawn only as the run reaches them,
		// and one shared callback serves every arrival — the submission time
		// arrives as the event's `now`. Arrivals enter through the
		// gateway like any Submit, with the deployment's
		// tenant/priority/deadline stamped on every request.
		cur := opts.Arrivals.Stream(sys.rng.Fork(int64(len(sys.funcs)+1)), arrivalBound)
		tmpl := Request{Func: name, Tenant: opts.Tenant, Priority: opts.Priority, Deadline: opts.Deadline}
		sys.Eng.ScheduleCursor(sys.Eng.Now(), cur, func(now sim.Time) { sys.submit(f, now, tmpl) })
	}
	sys.funcs = append(sys.funcs, f)
	// Last deployment wins the name (redeploy semantics); Submit resolves
	// through this index, and the tenant index feeds fair-share admission
	// and the per-tenant SLO roll-up.
	sys.funcByName[name] = f
	if _, ok := sys.tenantFuncs[f.tenant]; !ok {
		sys.tenantOrder = append(sys.tenantOrder, f.tenant)
	}
	sys.tenantFuncs[f.tenant] = append(sys.tenantFuncs[f.tenant], f)
	return f, nil
}

// arrivalBound is the fixed bound, relative to the deployment, on each
// function's arrivals; experiments run at most a few simulated hours.
// Arrivals are pulled lazily, so a run shorter than the bound never
// draws the rest.
const arrivalBound = 4 * sim.Hour

// inject delivers one admitted request into the serving plane. It is
// the gateway's dispatch step — System.Submit is the public entry
// point; nothing reaches an instance without passing admission.
func (f *Function) inject(now sim.Time, greq Request) {
	f.arrived++
	req := instance.Request{
		ID: f.sys.nextReqID(), Arrive: now,
		Tenant: greq.Tenant, Priority: greq.Priority,
		PromptTokens: greq.PromptTokens, DecodeTokens: greq.DecodeTokens,
	}
	if greq.Deadline > 0 {
		req.Deadline = now + greq.Deadline
	}
	if f.llm != nil && req.PromptTokens == 0 && req.DecodeTokens == 0 {
		// Token-level deployments stamp sampled lengths on requests that
		// carry none (the arrival-series path); explicit lengths pass
		// through untouched.
		req.PromptTokens, req.DecodeTokens = f.llm.sampleTokens()
	}
	if f.res != nil && req.Deadline > 0 {
		f.armHedge(req, now)
	}
	if in := f.pickLeastLoaded(); in != nil {
		req.Dispatch = now
		f.enqueue(in, req)
		return
	}
	f.pending = append(f.pending, req)
}

// enqueue hands a request to an instance, entering it into the system's
// tick-loop active set on the idle→busy transition.
func (f *Function) enqueue(in instance.Server, req instance.Request) {
	wasBusy := in.Busy()
	in.Enqueue(req)
	if !wasBusy {
		f.sys.wakeInst(in)
	}
}

// pickLeastLoaded is the gateway's dispatch rule across active instances.
func (f *Function) pickLeastLoaded() instance.Server {
	var best instance.Server
	bestLoad := 1 << 30
	for _, si := range f.active {
		if !si.inst.Active() {
			continue
		}
		if l := si.inst.Load(); l < bestLoad {
			bestLoad = l
			best = si.inst
		}
	}
	return best
}

// orderPending sorts the gateway's pending queue for draining: higher
// priority first, then earlier absolute deadline (no deadline last),
// and — the sort being stable — FIFO within ties. A queue of default
// requests (priority 0, no deadline) therefore drains in exactly the
// pre-gateway FIFO order.
func (f *Function) orderPending() {
	slices.SortStableFunc(f.pending, func(a, b instance.Request) int {
		if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
			return c
		}
		da, db := a.Deadline, b.Deadline
		if da <= 0 {
			da = sim.Time(1<<63 - 1)
		}
		if db <= 0 {
			db = sim.Time(1<<63 - 1)
		}
		return cmp.Compare(da, db)
	})
}

// flushPending hands queued gateway requests to active instances in
// priority/deadline order (FIFO-stable within ties), keeping whatever
// cannot be placed queued for the next activation. st is the cold
// launch whose activation triggered the flush: each dispatched request
// is stamped with the launch stage on its critical path. Warm callers
// pass zero stages, which stamps every request ColdNone.
func (f *Function) flushPending(now sim.Time, st model.ColdStartStages) {
	if len(f.pending) == 0 {
		return
	}
	f.orderPending()
	drained := 0
	for _, req := range f.pending {
		in := f.pickLeastLoaded()
		if in == nil {
			break
		}
		req.Dispatch = now
		req.ColdStage = coldStageOnPath(req.Arrive, now, st)
		f.enqueue(in, req)
		drained++
	}
	if drained == 0 {
		return
	}
	f.pending = append(f.pending[:0], f.pending[drained:]...)
}

// InstancesActive returns the number of serving (or cold-starting)
// instances.
func (f *Function) InstancesActive() int { return len(f.active) }

// Served sums completed requests over all instances (including retired
// ones via the recorder).
func (f *Function) Served() int64 {
	if f.Rec == nil {
		return 0
	}
	return int64(f.Rec.Count())
}

// launch places one instance. cold=true applies the model's cold-start
// delay before the instance starts serving; cold launches after initial
// deployment increment ColdStarts unless a warm instance is reused.
func (f *Function) launch(cold bool) (*servedInstance, error) {
	sys := f.sys
	// Keep-alive reuse.
	if w := f.popWarm(); w != nil {
		w.si.inst.SetActive(true)
		f.active = append(f.active, w.si)
		f.Launches.Inc()
		f.flushPending(sys.Eng.Now(), model.ColdStartStages{})
		return w.si, nil
	}
	var dec sched.Decision
	if len(f.pinned) > 0 {
		d, err := f.pinPlace()
		if err != nil {
			return nil, err
		}
		dec = d
	} else {
		decs, err := sys.scheduler.Schedule(sched.Request{
			Func: f.Name, Profile: f.Profile, Instances: 1, GPUsPerInstance: f.Stages,
		})
		if err != nil {
			return nil, err
		}
		dec = decs[0]
	}
	stages, err := sys.attach(dec, true, f.Profile)
	if err != nil {
		dec.Release()
		return nil, err
	}
	f.seq++
	var in instance.Server
	if f.llm != nil {
		// Bridge each stage's KV charges to its placement and resident so
		// quota conservation holds at the cluster and device granularities
		// alike. attach appends stages in decision-GPU order, so index i
		// pairs stage, GPU, and placement.
		for i := range stages {
			stages[i].KV = &kvStage{g: dec.GPUs[i], p: dec.Placements[i], res: stages[i].Res}
		}
		l := instance.NewLLM(fmt.Sprintf("%s#%d", f.Name, f.seq), f.Name, f.Spec,
			f.llm.config(), stages, f.Rec, f.llm.Tok)
		l.SetOnPreempt(f.onPreempt)
		in = l
	} else {
		in = instance.NewInference(fmt.Sprintf("%s#%d", f.Name, f.seq), f.Name, f.Spec, f.Profile.IBS, stages, f.Rec)
	}
	if f.res != nil {
		in.SetOnComplete(f.onRequestComplete)
	}
	si := &servedInstance{inst: in, dec: dec, stages: stages}
	f.active = append(f.active, si)
	if cold {
		f.ColdStarts.Inc()
		f.Launches.Inc()
		// Staged cold start: a kernel-cache hit shrinks the JIT stage,
		// and the activation flush stamps each freed request with the
		// stage on its critical path.
		st := f.coldStages(dec)
		sys.coldStats.ColdLaunches++
		sys.coldStats.ColdTime += st.Total()
		sys.Eng.After(st.Total(), func(now sim.Time) {
			in.SetActive(true)
			f.noteKernels(dec)
			f.flushPending(now, st)
		})
	} else {
		in.SetActive(true)
		f.noteKernels(dec)
	}
	return si, nil
}

// pinPlace reserves the function's quotas on explicitly chosen GPUs. A
// sharded instance (Stages > 1) spans every pinned GPU; single-stage
// instances round-robin over the pinned list so Instances=3, Pin=[0,1,2]
// puts one instance on each GPU.
func (f *Function) pinPlace() (sched.Decision, error) {
	sys := f.sys
	gpus := sys.Clu.GPUs()
	var targets []int
	if f.Stages > 1 {
		if len(f.pinned) != f.Stages {
			return sched.Decision{}, fmt.Errorf("core: %s pins %d GPUs for %d stages", f.Name, len(f.pinned), f.Stages)
		}
		targets = f.pinned
	} else {
		targets = []int{f.pinned[f.seq%len(f.pinned)]}
	}
	d := sched.Decision{Instance: fmt.Sprintf("%s-pin%d", f.Name, f.seq), Func: f.Name}
	per := float64(len(targets))
	for i, idx := range targets {
		if idx < 0 || idx >= len(gpus) {
			return sched.Decision{}, fmt.Errorf("core: pin index %d out of range", idx)
		}
		g := gpus[idx]
		p := &cluster.Placement{
			Instance: fmt.Sprintf("%s/s%d", d.Instance, i), Func: f.Name,
			Req: f.Profile.SMReq / per, Lim: f.Profile.SMLim / per, MemMB: f.Profile.MemMB / per,
		}
		if err := g.Place(p); err != nil {
			d.Release()
			return sched.Decision{}, err
		}
		d.GPUs = append(d.GPUs, g)
		d.Placements = append(d.Placements, p)
	}
	return d, nil
}

// scaleIn deactivates the least-loaded instance; its reservation either
// enters the keep-alive pool (TTL > 0) or is torn down immediately, its
// in-flight batch going back through the gateway.
func (f *Function) scaleIn(now sim.Time) {
	if len(f.active) <= 1 {
		return
	}
	idx := len(f.active) - 1
	load := 1 << 30
	for i, si := range f.active {
		if l := si.inst.Load(); l < load {
			load = l
			idx = i
		}
	}
	si := f.active[idx]
	f.active = append(f.active[:idx], f.active[idx+1:]...)
	si.inst.SetActive(false)
	// Re-dispatch its queue.
	for _, req := range si.inst.DropQueue() {
		if in := f.pickLeastLoaded(); in != nil {
			f.enqueue(in, req)
		} else {
			f.pending = append(f.pending, req)
		}
	}
	ttl := sim.Duration(0)
	if f.policy != nil {
		ttl = f.policy.KeepAliveTTL()
	}
	if ttl <= 0 {
		f.teardown(si, now)
		return
	}
	w := &warmEntry{si: si, expires: now + ttl}
	f.warm = append(f.warm, w)
	f.sys.Eng.Schedule(w.expires, func(at sim.Time) {
		if !w.reused && !w.dead {
			w.dead = true
			f.teardown(si, at)
		}
	})
}

func (f *Function) popWarm() *warmEntry {
	for i := len(f.warm) - 1; i >= 0; i-- {
		w := f.warm[i]
		if !w.dead && !w.reused {
			w.reused = true
			f.warm = append(f.warm[:i], f.warm[i+1:]...)
			return w
		}
	}
	return nil
}

// teardown is the single exit path of a served instance: it aborts the
// instance's outstanding work (releasing any KV charge through the
// stage backings while the placements still exist), releases its
// devices and reservations, and hands the aborted requests back to the
// gateway with their original arrival stamps — the lost work shows up
// as latency, never as a lost request.
func (f *Function) teardown(si *servedInstance, now sim.Time) {
	reqs := si.inst.Abort()
	f.sys.detachStages(si.dec, si.stages)
	si.dec.Release()
	f.redispatch(reqs, now)
}

// sample is the 1 Hz control step for this function.
func (f *Function) sample(now sim.Time) {
	rps := float64(f.arrived)
	f.arrived = 0
	f.RPSTrace.Add(now, rps)
	f.InstTrace.Add(now, float64(len(f.active)))
	f.flushPending(now, model.ColdStartStages{})
	if f.policy == nil {
		return
	}
	// Scale-out launches cold; a launch that finds no capacity ends the
	// step's scale-out.
	delta := f.policy.Decide(now, rps, len(f.active), f.Profile.ServingRPS)
	for ; delta > 0; delta-- {
		if _, err := f.launch(true); err != nil {
			break
		}
	}
	if delta < 0 {
		f.scaleIn(now)
	}
}
