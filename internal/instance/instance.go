// Package instance implements the serving-plane runtimes of Dilu's DL
// functions. One serving core owns what every request-serving instance
// shares: the local queue, the GPU step split evenly over its stages
// (pipeline shards on GPU fragments), KLC reporting, the completion path
// and the steal/abort/teardown plumbing of the Server interface. Two
// runtimes embed it and differ only in batch formation: Inference runs
// fixed batches (generative ones as a prefill step plus one step per
// output token), LLM batches continuously at token level with
// per-sequence KV-cache accounting. Training runs DDP and
// pipeline-parallel jobs with their gradient-sync idle phases, on the
// same stage-drain and completion-time rule.
//
// Instances interact with the substrate through two hooks called by the
// simulation world every 5 ms tick, around the RCKM token cycle and GPU
// execution:
//
//	PreTick  — enqueue block demand (form batches, start iterations)
//	PostTick — detect completions, record latencies, report KLCs
package instance

import (
	"fmt"

	"dilu/internal/gpu"
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/rckm"
	"dilu/internal/sim"
)

// Request is one inference invocation.
type Request struct {
	ID       int64
	Arrive   sim.Time // gateway arrival
	Dispatch sim.Time // set when handed to an instance

	// Gateway metadata (see core.Request). Tenant is the accounting
	// identity; Priority and Deadline (absolute completion target, zero =
	// none) order the gateway's pending queue and feed deadline-aware
	// admission. The serving plane carries them but executes batches
	// identically for all values.
	Tenant   string
	Priority int
	Deadline sim.Time

	// Hedge marks a speculative duplicate racing the primary copy (see
	// core.Config.Hedge); false on every request when hedging is off.
	Hedge bool

	// ColdStage is the cold-start stage on this request's critical path,
	// stamped by the serving plane when a launch's activation flush
	// dispatches it (ColdNone when it never waited for a launch). The
	// recorder attributes the request's SLO violation to it.
	ColdStage metrics.ColdStage

	// Token-level metadata for autoregressive (LLM) requests: the prompt
	// length to prefill and the number of output tokens to decode. Zero
	// on every request of a non-LLM function.
	PromptTokens int
	DecodeTokens int
}

// KVBacking is the memory substrate an LLM instance charges KV-cache
// growth against — one per stage, bridging to the cluster placement and
// GPU resident so quota conservation holds at every granularity.
// ReserveKV returns false when the device lacks headroom (cache full).
type KVBacking interface {
	ReserveKV(mb float64) bool
	ReleaseKV(mb float64)
}

// Stage couples one GPU execution context with its RCKM client. Single-
// GPU instances have one stage; fragmented LLM instances have one per
// pipeline shard. KV is non-nil only on token-level LLM instances.
type Stage struct {
	Res    *gpu.Resident
	Client *rckm.Client
	KV     KVBacking
}

// Ticker is implemented by every instance runtime. Busy reports whether
// the runtime has per-tick work pending — queued or in-flight requests
// for inference, an unfinished active job for training. The simulation
// world uses it to keep idle runtimes out of the tick loop; PreTick and
// PostTick are no-ops (beyond flag housekeeping the runtime performs at
// its own idle transition) whenever Busy is false.
type Ticker interface {
	PreTick(now sim.Time)
	PostTick(now sim.Time)
	Busy() bool
}

// ---------------------------------------------------------------------------
// Inference.

// Inference is a batched inference server for one function instance.
type Inference struct {
	server
	IBS int

	// In-flight batch.
	batch      []Request
	steps      int // remaining execution steps (1 for discriminative; 1+tokens for generative)
	totalSteps int
}

// NewInference builds an inference instance. Stages must be non-empty;
// rec may be shared across the function's instances.
func NewInference(id, fn string, spec *model.Spec, ibs int, stages []Stage, rec *metrics.LatencyRecorder) *Inference {
	if len(stages) == 0 {
		panic("instance: inference needs at least one stage")
	}
	if ibs < 1 {
		ibs = 1
	}
	inst := &Inference{server: server{ID: id, Func: fn, Spec: spec, Stages: stages, Rec: rec}, IBS: ibs}
	inst.applySaturation(1)
	return inst
}

// HasRequest reports whether a copy of request id is held by this
// instance, queued or executing.
func (in *Inference) HasRequest(id int64) bool {
	for _, req := range in.batch {
		if req.ID == id {
			return true
		}
	}
	return in.queued(id)
}

// InFlight returns the size of the executing batch.
func (in *Inference) InFlight() int { return len(in.batch) }

// Load returns queued plus in-flight requests — the dispatch signal used
// by the least-loaded balancer.
func (in *Inference) Load() int { return in.queue.len() + len(in.batch) }

// PreTick forms a batch from the queue when the previous one finished.
// Under queue pressure the batch grows past the profiled IBS (adaptive
// batching à la BATCH/INFless) up to twice the profiled size — the burst
// regime the doubled limit quota is provisioned for.
func (in *Inference) PreTick(now sim.Time) {
	queued := in.queue.len()
	if !in.active || in.steps > 0 || queued == 0 {
		if queued <= 2*in.IBS {
			in.setPressured(false)
		}
		return
	}
	maxBatch := in.IBS
	pressured := queued > 2*in.IBS
	if pressured {
		maxBatch = 2 * in.IBS
		if maxBatch > model.MaxIBS {
			maxBatch = model.MaxIBS
		}
	}
	in.setPressured(pressured)
	n := min(queued, maxBatch)
	in.batch = append(in.batch[:0], in.queue.items()[:n]...)
	in.queue.pop(n)
	in.applySaturation(n)
	if in.Spec.Generative {
		in.totalSteps = 1 + in.Spec.AvgOutTokens
		in.steps = in.totalSteps
		in.startStep(now, in.Spec.PrefillWork*(1+in.Spec.InferPerItem*float64(n-1)))
	} else {
		in.totalSteps = 1
		in.steps = 1
		in.startStep(now, in.Spec.InferWork(n))
	}
}

// PostTick advances steps and completes batches.
func (in *Inference) PostTick(now sim.Time) {
	if in.steps == 0 || !drained(in.Stages) {
		return
	}
	// The first step of a multi-step generative batch is its prefill.
	done := in.finishStep(now, in.Spec.Generative && in.steps == in.totalSteps && in.totalSteps > 1)
	in.steps--
	if in.steps > 0 {
		in.startStep(now, in.Spec.DecodeStepWork(len(in.batch)))
		return
	}
	// Batch complete: generative latencies are per output token.
	perTok := 1
	if in.Spec.Generative && in.Spec.AvgOutTokens > 0 {
		perTok = in.Spec.AvgOutTokens
	}
	for _, req := range in.batch {
		in.complete(req, done, perTok)
	}
	clear(in.batch)
	in.batch = in.batch[:0]
	if in.queue.len() == 0 {
		// The instance is about to leave the world's active set; perform
		// the pressure-flag clearing its next (never-delivered) PreTick
		// would have done, so RCKM never sees a stale backlog signal.
		in.setPressured(false)
	}
}

// Abort cancels the in-flight batch and drops the queue — the forced
// teardown of a node failure or migration, where waiting for the batch
// is not an option. Every uncompleted request (executing ones first, in
// batch order, then the queue) is returned for gateway re-dispatch with
// its original Arrive stamp, so requeued requests pay their lost work in
// recorded latency. Execution state resets, leaving the instance idle.
func (in *Inference) Abort() []Request {
	reqs := append(make([]Request, 0, in.Load()), in.batch...)
	clear(in.batch)
	in.batch = in.batch[:0]
	in.steps = 0
	in.totalSteps = 0
	return in.abort(reqs)
}

// Busy implements Ticker: queued or in-flight work exists. Note this is
// independent of Active — a descheduled instance still drains its
// in-flight batch.
func (in *Inference) Busy() bool { return in.queue.len() > 0 || in.steps > 0 }

func (in *Inference) String() string {
	return fmt.Sprintf("inf[%s %s ibs=%d stages=%d]", in.ID, in.Spec.Name, in.IBS, len(in.Stages))
}

// ---------------------------------------------------------------------------
// Training.

// TrainPhase is the position inside a training iteration.
type TrainPhase int

// Training phases.
const (
	TrainCompute TrainPhase = iota
	TrainSyncing
)

// Training is a distributed training job: W workers iterating in lockstep
// (DDP) or a pipeline of stage workers (DeepSpeed fine-tuning). Each
// worker owns a Stage on a distinct GPU; an iteration is compute on every
// worker followed by a communication phase that leaves GPUs idle — the
// fragmentation source of Observation-2.
type Training struct {
	ID   string
	Func string
	Spec *model.Spec

	Workers  []Stage
	Pipeline bool // pipeline-parallel fine-tuning (samples not multiplied by workers)

	active     bool
	phase      TrainPhase
	syncUntil  sim.Time
	iterStart  sim.Time
	iters      int64
	samples    float64
	computeSum sim.Duration

	// TargetIters>0 ends the job and records DoneAt (JCT accounting).
	TargetIters int64
	DoneAt      sim.Time
	StartedAt   sim.Time
	finished    bool
}

// NewTraining builds a training job over the given worker stages.
func NewTraining(id, fn string, spec *model.Spec, workers []Stage) *Training {
	if len(workers) == 0 {
		panic("instance: training needs at least one worker")
	}
	tr := &Training{ID: id, Func: fn, Spec: spec, Workers: workers,
		Pipeline: spec.TrainStages > 1}
	k := spec.TrainSatK()
	for _, w := range workers {
		w.Res.SetSatK(k)
	}
	return tr
}

// SetActive starts (or pauses) the job.
func (tr *Training) SetActive(active bool) { tr.active = active }

// Active reports whether the job is running.
func (tr *Training) Active() bool { return tr.active }

// Finished reports whether the job hit its iteration target.
func (tr *Training) Finished() bool { return tr.finished }

// Busy implements Ticker: an active, unfinished job iterates every tick
// (compute polling and sync-phase countdowns both ride the tick loop).
func (tr *Training) Busy() bool { return tr.active && !tr.finished }

// Iterations returns completed iterations.
func (tr *Training) Iterations() int64 { return tr.iters }

// Samples returns processed samples across all workers.
func (tr *Training) Samples() float64 { return tr.samples }

// Throughput returns samples/second since the job became active.
func (tr *Training) Throughput(now sim.Time) float64 {
	if tr.StartedAt == 0 && tr.iters == 0 {
		return 0
	}
	end := now
	if tr.finished {
		end = tr.DoneAt
	}
	dur := (end - tr.StartedAt).Seconds()
	if dur <= 0 {
		return 0
	}
	return tr.samples / dur
}

// PreTick launches the next iteration's compute when ready.
func (tr *Training) PreTick(now sim.Time) {
	if !tr.active || tr.finished {
		return
	}
	if tr.StartedAt == 0 {
		tr.StartedAt = now
	}
	switch tr.phase {
	case TrainSyncing:
		if now < tr.syncUntil {
			return
		}
		tr.phase = TrainCompute
		tr.launchCompute(now)
	case TrainCompute:
		if tr.iterStart == 0 {
			tr.launchCompute(now)
		}
	}
}

func (tr *Training) launchCompute(now sim.Time) {
	tr.iterStart = now
	for _, w := range tr.Workers {
		w.Res.AddWork(tr.Spec.TrainWork)
	}
}

// PostTick detects compute completion (barrier across workers — the
// barrel effect of Principle-1) and enters the sync phase.
func (tr *Training) PostTick(now sim.Time) {
	if !tr.active || tr.finished || tr.phase != TrainCompute || tr.iterStart == 0 {
		return
	}
	if !drained(tr.Workers) {
		return
	}
	done := completionTime(tr.Workers, now)
	klc := done - tr.iterStart
	observe(tr.Workers, klc, tr.Spec.TrainWork)
	tr.computeSum += klc
	tr.iters++
	if tr.Pipeline {
		tr.samples += float64(tr.Spec.TrainSamples)
	} else {
		tr.samples += float64(tr.Spec.TrainSamples * len(tr.Workers))
	}
	if tr.TargetIters > 0 && tr.iters >= tr.TargetIters {
		tr.finished = true
		tr.DoneAt = done + tr.Spec.TrainSync
		return
	}
	tr.phase = TrainSyncing
	tr.syncUntil = done + tr.Spec.TrainSync
	tr.iterStart = 0
}

// Preempt swaps the job's entire worker set after an eviction (node
// failure or drain): checkpoint-restart semantics. The interrupted
// iteration is abandoned — at most one iteration of work is lost — and
// the job resumes from a fresh compute phase on the new workers at the
// next tick. Completed-iteration and sample counters are preserved.
func (tr *Training) Preempt(workers []Stage) {
	if len(workers) == 0 {
		panic("instance: training needs at least one worker")
	}
	k := tr.Spec.TrainSatK()
	for _, w := range workers {
		w.Res.SetSatK(k)
	}
	tr.Workers = workers
	tr.phase = TrainCompute
	tr.iterStart = 0
	tr.syncUntil = 0
}

// MeanIterTime returns the average compute time per iteration.
func (tr *Training) MeanIterTime() sim.Duration {
	if tr.iters == 0 {
		return 0
	}
	return tr.computeSum / sim.Duration(tr.iters)
}

func (tr *Training) String() string {
	kind := "ddp"
	if tr.Pipeline {
		kind = "pipeline"
	}
	return fmt.Sprintf("train[%s %s %s x%d]", tr.ID, tr.Spec.Name, kind, len(tr.Workers))
}
