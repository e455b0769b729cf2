// Package dilu is a Go reproduction of "Dilu: Enabling GPU
// Resourcing-on-Demand for Serverless DL Serving via Introspective
// Elasticity" (ASPLOS 2025).
//
// It implements the paper's full stack — multi-factor profiling with
// pruning search (§3.2), resourcing-complementary scheduling
// (Algorithm 1, §3.3), and adaptive 2D co-scaling built on a per-GPU
// real-time kernel manager (Algorithm 2, §3.4) — together with every
// baseline of the evaluation (Exclusive, MPS-l/-r, TGS, FaST-GS+,
// INFless+-l/-r) on a deterministic discrete-time GPU cluster simulator
// that substitutes for the paper's A100 testbed (see README.md,
// "Reproducing the paper").
//
// The root package re-exports the public API; the quickest way in:
//
//	sys := dilu.NewSystem(dilu.Config{Nodes: 2, GPUsPerNode: 4})
//	f, _ := sys.DeployInference("rob", "RoBERTa-large", dilu.InferOpts{
//	    Arrivals: dilu.Poisson{RPS: 30},
//	})
//	tj, _ := sys.DeployTraining("bert", "BERT-base", dilu.TrainOpts{Workers: 2})
//	sys.Run(2 * dilu.Minute)
//	fmt.Println(f.Rec.P95(), tj.Throughput(sys.Eng.Now()))
//
// Every table and figure of the paper's evaluation can be regenerated
// through the experiments registry (see cmd/dilu-bench and README.md,
// "Reproducing the paper").
package dilu

import (
	"dilu/internal/core"
	"dilu/internal/experiments"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Re-exported virtual-time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Core system types.
type (
	// Config selects the system variant (token policy, scheduler,
	// scaler) and testbed dimensions.
	Config = core.Config
	// System is a fully wired serverless DL serving stack.
	System = core.System
	// InferOpts configures an inference function deployment.
	InferOpts = core.InferOpts
	// TrainOpts configures a training job deployment.
	TrainOpts = core.TrainOpts
	// Function is a deployed inference function.
	Function = core.Function
	// TrainingJob is a deployed training job.
	TrainingJob = core.TrainingJob
)

// Workload generators.
type (
	// Arrivals is a deterministic request arrival process.
	Arrivals = workload.Arrivals
	// Poisson is a homogeneous Poisson arrival process.
	Poisson = workload.Poisson
	// Gamma is a Gamma-renewal process parameterized by CV.
	Gamma = workload.Gamma
	// Bursty is the Azure-style bursty trace class.
	Bursty = workload.Bursty
	// Periodic is the Azure-style periodic trace class.
	Periodic = workload.Periodic
	// Sporadic is the Azure-style sporadic trace class.
	Sporadic = workload.Sporadic
)

// Profiling.
type (
	// Profile is a function's resourcing metadata (⟨request, limit⟩,
	// IBS, memory, serving capacity).
	Profile = profiler.Profile
	// ModelSpec describes a DL model's performance behaviour.
	ModelSpec = model.Spec
)

// Experiment harness.
type (
	// ExperimentOptions scale experiment runs.
	ExperimentOptions = experiments.Options
	// Experiment regenerates one paper table or figure.
	Experiment = experiments.Driver
	// Report is a rendered experiment result.
	Report = report.Report
)

// NewSystem builds a system, panicking on configuration errors. Use
// core semantics: zero-value Config gives the full Dilu stack on a
// 5-node × 4-GPU cluster.
func NewSystem(cfg Config) *System { return core.MustSystem(cfg) }

// NewSystemErr builds a system, returning configuration errors.
func NewSystemErr(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Models returns the built-in DL model catalog (ResNet152, VGG19,
// BERT-base, RoBERTa-large, GPT2-large, LLaMA2-7B, ChatGLM3-6B).
func Models() []*ModelSpec { return model.All() }

// ModelByName looks up a catalog model; it panics on unknown names.
func ModelByName(name string) *ModelSpec { return model.ByName(name) }

// ProfileInference runs Dilu's HGSS profiling for a model.
func ProfileInference(modelName string) Profile {
	return profiler.For(model.ByName(modelName), profiler.RoleInference)
}

// ProfileTraining runs Dilu's binary-search profiling for a model.
func ProfileTraining(modelName string) Profile {
	return profiler.For(model.ByName(modelName), profiler.RoleTraining)
}

// Experiments returns every paper-artifact driver in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one driver (e.g. "table2", "figure7").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }
