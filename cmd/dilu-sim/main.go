// Command dilu-sim runs an ad-hoc serverless DL serving scenario: one
// inference function and one optional training job, collocated on a
// small GPU cluster under a chosen system variant, and prints the
// resulting QoS and utilization metrics.
//
//	dilu-sim -system Dilu -inf RoBERTa-large -rps 40 -cv 3 -train BERT-base
//	dilu-sim -system MPS-l -inf GPT2-large -rps 20 -dur 120
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dilu/internal/core"
	"dilu/internal/rckm"
	"dilu/internal/scaler"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the scenario and prints the report to stdout.
// It returns the process exit code: 0 on success, 1 when a deployment
// fails, 2 on bad flags or an unknown system name.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dilu-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "Dilu", "token policy: Dilu, MPS-l, MPS-r, Exclusive, TGS, FaST-GS, Uncontrolled")
	infModel := fs.String("inf", "RoBERTa-large", "inference model")
	trainModel := fs.String("train", "", "collocated training model (empty = none)")
	rps := fs.Float64("rps", 30, "mean inference request rate")
	cv := fs.Float64("cv", 1, "arrival coefficient of variation (1 = Poisson)")
	dur := fs.Float64("dur", 60, "simulated seconds")
	nodes := fs.Int("nodes", 1, "cluster nodes")
	gpus := fs.Int("gpus", 2, "GPUs per node")
	seed := fs.Int64("seed", 1, "random seed")
	autoscale := fs.Bool("autoscale", false, "enable Dilu's lazy horizontal scaler")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if _, err := rckm.PolicyByName(*system); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := core.Config{Nodes: *nodes, GPUsPerNode: *gpus, Policy: *system, Seed: *seed}
	if *autoscale {
		cfg.NewScaler = func() scaler.Policy { return scaler.NewDilu(scaler.DiluConfig{}) }
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var tj *core.TrainingJob
	if *trainModel != "" {
		tj, err = sys.DeployTraining(*trainModel+"-train", *trainModel, core.TrainOpts{Workers: 1})
		if err != nil {
			fmt.Fprintln(stderr, "training deploy:", err)
			return 1
		}
	}
	f, err := sys.DeployInference(*infModel+"-inf", *infModel, core.InferOpts{
		Arrivals: workload.Gamma{RPS: *rps, CV: *cv},
	})
	if err != nil {
		fmt.Fprintln(stderr, "inference deploy:", err)
		return 1
	}

	horizon := sim.FromSeconds(*dur)
	sys.Run(horizon)

	fmt.Fprintf(stdout, "system          %s\n", *system)
	fmt.Fprintf(stdout, "simulated       %.0fs on %d GPUs (%d occupied)\n",
		*dur, *nodes**gpus, sys.Clu.OccupiedCount())
	fmt.Fprintf(stdout, "inference       %s: served=%d p50=%.1fms p95=%.1fms SVR=%.2f%% cold-starts=%d instances=%d\n",
		*infModel, f.Served(), f.Rec.P50().Millis(), f.Rec.P95().Millis(),
		f.Rec.ViolationRate()*100, f.ColdStarts.Value, f.InstancesActive())
	if tj != nil {
		fmt.Fprintf(stdout, "training        %s: %.1f samples/s (%.0f%% of exclusive)\n",
			*trainModel, tj.Throughput(sys.Eng.Now()),
			100*tj.Throughput(sys.Eng.Now())/tj.Spec.TrainThroughput(1.0))
	}
	var occ float64
	n := 0
	for g := range sys.Clu.ActiveGPUs() {
		occ += g.Dev.MeanOccupancy()
		n++
	}
	if n > 0 {
		fmt.Fprintf(stdout, "mean SM busy    %.1f%% across %d active GPUs\n", occ/float64(n)*100, n)
	}
	return 0
}
