// Package core assembles Dilu's three planes — control (profiler +
// scheduler), scaling (global scaler + per-GPU RCKM), and serving
// (gateway, instances, GPUs) — into a runnable System, and can assemble
// every baseline configuration of the evaluation from the same parts
// (Exclusive, MPS-l/-r, TGS, FaST-GS+, INFless+-l/-r, and the -RC/-WA/-VS
// ablations).
//
// A System owns one deterministic simulation engine. Experiments deploy
// functions/jobs, run the virtual clock, and read metrics back.
package core

import (
	"fmt"

	"dilu/internal/cluster"
	"dilu/internal/gpu"
	"dilu/internal/instance"
	"dilu/internal/metrics"
	"dilu/internal/rckm"
	"dilu/internal/scaler"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// Config selects the system variant and its substrate dimensions.
type Config struct {
	// Nodes and GPUsPerNode define the testbed (paper default: 5 × 4).
	Nodes       int
	GPUsPerNode int
	// Classes makes the fleet heterogeneous (mixed GPU generations);
	// empty keeps the uniform capacity-1.0 fleet.
	Classes []cluster.GPUClass
	// Policy is the RCKM token-issuing policy name: Dilu, MPS-l, MPS-r,
	// Exclusive, TGS, FaST-GS, Uncontrolled. Default Dilu.
	Policy string
	// Scheduler is the cluster scheduler name: Dilu, Exclusive,
	// INFless+-l, INFless+-r, FaST-GS+. Default Dilu.
	Scheduler string
	// SchedOpts tunes the Dilu scheduler (Ω, γ, ablations).
	SchedOpts sched.Options
	// RCKM tunes Algorithm 2 (MaxTokens, η values).
	RCKM rckm.Config
	// NewScaler builds a fresh horizontal-scaling policy per inference
	// function; nil disables horizontal scaling.
	NewScaler func() scaler.Policy
	// Admission is the gateway's admission policy; nil is the admit-all
	// pass-through (every submitted request is injected unconditionally,
	// the pre-gateway behaviour). Policies hold per-run state — build a
	// fresh value per System.
	Admission AdmissionPolicy
	// Hedge races a deadline-carrying request on a second instance
	// SLO/2 after admission (its own function's SLO), drawing on a
	// per-tenant hedge budget (see resilience.go); off, the layer has no
	// per-request state and no timers.
	Hedge bool
	// Quarantine enables the per-GPU health monitor: slow or flaky GPUs
	// leave the schedulable indexes until a probe finds them clean (see
	// health.go).
	Quarantine bool
	// ColdStart tunes the staged cold-start model (see
	// ColdStartConfig); the zero value is the default.
	ColdStart ColdStartConfig
	// Seed drives all randomness.
	Seed int64
	// Meter, when non-nil, observes the engine's virtual-time progress
	// (harness throughput accounting). It never affects behaviour.
	Meter *sim.Meter
	// Invariants are read-only state checkers run at the end of every
	// fired tick and at the Run horizon; a violation panics. The default
	// factory's invariants (see SetDefaultInvariantFactory) are appended
	// to this list. Checkers never affect results — they are not tickers
	// and do not keep an idle system from fast-forwarding.
	Invariants []Invariant
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.Policy == "" {
		c.Policy = "Dilu"
	}
	if c.Scheduler == "" {
		c.Scheduler = "Dilu"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// System is one fully wired serverless DL serving stack.
type System struct {
	cfg Config
	Eng *sim.Engine
	Clu *cluster.Cluster

	scheduler sched.Scheduler
	managers  []*rckm.Manager // parallel to Clu.GPUs()
	mgrByGPU  map[*cluster.GPU]*rckm.Manager

	funcs      []*Function
	jobs       []*TrainingJob
	funcByName map[string]*Function

	// gw is the admission gateway (System.Submit); tenantFuncs and
	// tenantOrder index deployed functions by their deployment tenant
	// for fair-share admission and per-tenant SLO roll-ups.
	gw          gateway
	tenantFuncs map[string][]*Function
	tenantOrder []string

	// Active sets. The tick loop iterates exactly the entities whose
	// per-tick work is non-trivial, instead of scanning the whole world:
	// instances with queued or in-flight work, managers with registered
	// clients, and started-but-unreleased training jobs. Membership is
	// updated incrementally at attach/detach and demand transitions;
	// each set's predicate matches the guard the pre-refactor full scan
	// applied, so results are bit-identical. attach registers a client
	// and attaches a resident together and detachStages undoes both, so
	// a manager has clients exactly while its device has residents and
	// activeMgrs drives both the token and the execution phase. When
	// every set is empty (and no OnTick observer is registered) the
	// system deregisters its engine ticker entirely, letting the engine
	// fast-forward across idle stretches.
	activeInsts []instance.Ticker
	instActive  map[instance.Ticker]bool
	activeMgrs  []*rckm.Manager
	liveJobs    []*TrainingJob
	tickHandle  *sim.TickerHandle

	rng    *sim.RNG
	reqSeq int64

	// GPUSeries samples occupied-GPU count once per second (SGT and
	// Figure 17 accounting).
	GPUSeries *metrics.Series

	onTick []func(now sim.Time)

	churn ChurnStats

	// faults counts injected gray-failure events and mitigation
	// outcomes.
	faults FaultStats
	health *healthMonitor

	// coldStats aggregates cold-launch activity (kernel-cache hits,
	// launch count, total cold time) for the SLO summary's cold-start
	// block.
	coldStats coldStartStats

	// llmDeployed latches once any deployment uses the token-level
	// runtime; it gates the 1 Hz KV-occupancy probe and the SLO summary's
	// LLM block, keeping every fixed-batch run byte-identical. The peaks
	// are run maxima over the probe's samples.
	llmDeployed bool
	kvPeakMB    float64
	kvPeakShare float64

	invariants []Invariant

	horizon sim.Duration
}

// NewSystem builds a system.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	policy, err := rckm.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	clu := cluster.New(cluster.Config{Nodes: cfg.Nodes, GPUsPerNode: cfg.GPUsPerNode, WithDevices: true, Classes: cfg.Classes})
	sys := &System{
		cfg:         cfg,
		Eng:         sim.NewEngine(),
		Clu:         clu,
		rng:         sim.NewRNG(cfg.Seed),
		mgrByGPU:    make(map[*cluster.GPU]*rckm.Manager),
		instActive:  make(map[instance.Ticker]bool),
		funcByName:  make(map[string]*Function),
		tenantFuncs: make(map[string][]*Function),
		gw:          gateway{policy: cfg.Admission, stats: make(map[string]*TenantStats)},
		GPUSeries:   metrics.NewSeries("occupied-gpus"),
	}
	if cfg.Meter != nil {
		sys.Eng.SetMeter(cfg.Meter)
	}
	sys.invariants = append(sys.invariants, cfg.Invariants...)
	if defaultInvariantFactory != nil {
		sys.invariants = append(sys.invariants, defaultInvariantFactory()...)
	}
	switch cfg.Scheduler {
	case "Dilu":
		sys.scheduler = sched.NewDilu(clu, cfg.SchedOpts)
	case "Exclusive":
		sys.scheduler = sched.NewExclusive(clu)
	case "INFless+-l":
		sys.scheduler = sched.NewINFlessL(clu)
	case "INFless+-r":
		sys.scheduler = sched.NewINFlessR(clu)
	case "FaST-GS+":
		sys.scheduler = sched.NewFaSTGS(clu)
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", cfg.Scheduler)
	}
	for _, g := range clu.GPUs() {
		m := rckm.NewManager(g.Dev, policy, cfg.RCKM)
		sys.managers = append(sys.managers, m)
		sys.mgrByGPU[g] = m
	}
	if cfg.Quarantine {
		sys.health = newHealthMonitor(sys)
	}
	for _, n := range clu.Nodes {
		n.Kernels = gpu.NewKernelCache(kernelCacheSize)
	}
	sys.tickHandle = sys.Eng.AddDynamicTicker(sim.TickerFunc(sys.tick))
	sys.updateTickActivity() // nothing deployed yet: start deregistered
	// One-second sampler for scaling decisions and occupancy traces.
	var sampler func(now sim.Time)
	sampler = func(now sim.Time) {
		sys.sample(now)
		sys.Eng.Schedule(now+sim.Second, sampler)
	}
	sys.Eng.Schedule(sim.Second, sampler)
	return sys, nil
}

// MustSystem is NewSystem that panics on configuration errors (test and
// experiment convenience).
func MustSystem(cfg Config) *System {
	sys, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// Config returns the system configuration (with defaults applied).
func (sys *System) Config() Config { return sys.cfg }

// Scheduler exposes the cluster scheduler.
func (sys *System) Scheduler() sched.Scheduler { return sys.scheduler }

// Functions returns the deployed inference functions.
func (sys *System) Functions() []*Function { return sys.funcs }

// Jobs returns the deployed training jobs.
func (sys *System) Jobs() []*TrainingJob { return sys.jobs }

// Manager returns the RCKM manager of a GPU.
func (sys *System) Manager(g *cluster.GPU) *rckm.Manager { return sys.mgrByGPU[g] }

// OnTick registers a per-5ms-tick observer (trace sampling for Figures
// 13/14). A system with observers ticks on every period for as long as
// it runs.
func (sys *System) OnTick(fn func(now sim.Time)) {
	sys.onTick = append(sys.onTick, fn)
	sys.updateTickActivity()
}

// wakeInst adds an instance runtime to the active set. Idempotent; idle
// instances are swept back out by the tick loop.
func (sys *System) wakeInst(t instance.Ticker) {
	if sys.instActive[t] {
		return
	}
	sys.instActive[t] = true
	sys.activeInsts = append(sys.activeInsts, t)
	sys.updateTickActivity()
}

// updateTickActivity (de)registers the system's engine ticker to match
// whether the next tick would do any work. The deactivation contract of
// sim.TickerHandle holds by construction: with every active set empty
// and no observers, tick is a no-op.
func (sys *System) updateTickActivity() {
	sys.tickHandle.SetActive(len(sys.activeInsts) > 0 || len(sys.activeMgrs) > 0 ||
		len(sys.liveJobs) > 0 || len(sys.onTick) > 0)
}

// tick is the world loop: demand, tokens, execution, completions. Each
// phase walks its active set; the sets' predicates mirror the guards the
// full scans used (instances with work, managers with clients — whose
// devices are exactly those with residents), and every per-entity step
// touches only that entity's state, so iteration order within a phase
// cannot affect results.
func (sys *System) tick(now sim.Time) {
	for _, in := range sys.activeInsts {
		in.PreTick(now)
	}
	for _, m := range sys.activeMgrs {
		m.Issue(now)
	}
	for _, m := range sys.activeMgrs {
		m.Dev.ExecuteTick()
	}
	idled := false
	for _, in := range sys.activeInsts {
		in.PostTick(now)
		if !in.Busy() {
			idled = true
		}
	}
	if idled {
		kept := sys.activeInsts[:0]
		for _, in := range sys.activeInsts {
			if in.Busy() {
				kept = append(kept, in)
			} else {
				delete(sys.instActive, in)
			}
		}
		for i := len(kept); i < len(sys.activeInsts); i++ {
			sys.activeInsts[i] = nil
		}
		sys.activeInsts = kept
	}
	if len(sys.liveJobs) > 0 {
		kept := sys.liveJobs[:0]
		for _, j := range sys.liveJobs {
			j.maybeFinish(now)
			if !j.released {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(sys.liveJobs); i++ {
			sys.liveJobs[i] = nil
		}
		sys.liveJobs = kept
	}
	for _, fn := range sys.onTick {
		fn(now)
	}
	sys.updateTickActivity()
	sys.checkInvariants(now)
}

// sample runs the 1 Hz control loop: RPS accounting, horizontal scaling,
// occupancy traces.
func (sys *System) sample(now sim.Time) {
	if sys.horizon > 0 && now > sys.horizon {
		return
	}
	sys.GPUSeries.Add(now, float64(sys.Clu.OccupiedCount()))
	if sys.llmDeployed {
		sys.sampleKV()
	}
	for _, f := range sys.funcs {
		f.sample(now)
	}
	if sys.health != nil {
		sys.health.sample(now)
	}
}

// Run advances the virtual clock to the horizon. Attached invariants are
// verified once more at the horizon: events fired during an idle
// fast-forward span (scale decisions, keep-alive expiries) would
// otherwise escape checking when no further tick fires.
func (sys *System) Run(d sim.Duration) {
	sys.horizon = sys.Eng.Now() + d
	sys.Eng.Run(sys.horizon)
	sys.checkInvariants(sys.Eng.Now())
}

// GPUSecondsUsed integrates the occupied-GPU trace (for SGT and the cost
// comparisons of Figure 17).
func (sys *System) GPUSecondsUsed() float64 { return sys.GPUSeries.Integral() }

// SLOSummary rolls up every deployed inference function's SLO accounting
// (violations, cold-start attribution, goodput, percentile attainment)
// over the virtual time elapsed so far. Functions appear in deployment
// order, so the summary is deterministic.
func (sys *System) SLOSummary() *metrics.SLOSummary {
	recs := make([]*metrics.LatencyRecorder, len(sys.funcs))
	for i, f := range sys.funcs {
		recs[i] = f.Rec
	}
	sum := metrics.SummarizeSLO(sys.Eng.Now(), recs...)
	sum.Gateway = sys.gatewaySLO(sys.Eng.Now())
	sum.Resilience = sys.resilienceSLO()
	sum.ColdStart = sys.coldStartSLO()
	sum.LLM = sys.llmSLO()
	return sum
}

func (sys *System) nextReqID() int64 {
	sys.reqSeq++
	return sys.reqSeq
}
