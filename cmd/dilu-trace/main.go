// Command dilu-trace records per-second GPU traces (kernel-issue ratio,
// cumulative blocks, occupancy, offered RPS) for a training-inference
// collocation under a chosen token policy and emits them as CSV — the
// raw data behind Figures 13 and 14, ready for external plotting.
//
//	dilu-trace -system Dilu  -inf RoBERTa-large -train BERT-base -rps 10 > dilu.csv
//	dilu-trace -system MPS-r -inf RoBERTa-large -train BERT-base -rps 10 > mpsr.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"

	"dilu/internal/core"
	"dilu/internal/rckm"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the collocation and writes the CSV trace to
// stdout. It returns the process exit code: 0 on success, 1 when a
// deployment fails, 2 on bad flags or an unknown policy name.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dilu-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "Dilu", "token policy: Dilu, MPS-l, MPS-r, Exclusive, TGS, FaST-GS, Uncontrolled")
	infModel := fs.String("inf", "RoBERTa-large", "inference model")
	trainModel := fs.String("train", "BERT-base", "collocated training model")
	rps := fs.Float64("rps", 10, "mean inference request rate")
	cv := fs.Float64("cv", 1, "arrival coefficient of variation")
	dur := fs.Float64("dur", 50, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if _, err := rckm.PolicyByName(*system); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sys, err := core.NewSystem(core.Config{Nodes: 1, GPUsPerNode: 1, Policy: *system, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, err := sys.DeployTraining("t", *trainModel, core.TrainOpts{Workers: 1, Pin: []int{0}}); err != nil {
		fmt.Fprintln(stderr, "training:", err)
		return 1
	}
	f, err := sys.DeployInference("i", *infModel, core.InferOpts{
		Pin:      []int{0},
		Arrivals: workload.Gamma{RPS: *rps, CV: *cv},
	})
	if err != nil {
		fmt.Fprintln(stderr, "inference:", err)
		return 1
	}

	w := csv.NewWriter(stdout)
	defer w.Flush()
	_ = w.Write([]string{"seconds", "rps", "inf_kernel_ratio", "total_blocks", "occupancy", "inf_grant_frac", "train_grant_frac"})

	dev := sys.Clu.GPUs()[0].Dev
	var lastInf, lastTotal float64
	var next sim.Time = sim.Second
	sys.OnTick(func(now sim.Time) {
		if now < next {
			return
		}
		next += sim.Second
		var inf, tot, infGrant, trainGrant float64
		for _, r := range dev.Residents() {
			tot += r.TotalLaunched()
			if r.ID[0] == 'i' {
				inf += r.TotalLaunched()
				infGrant = r.GrantedLast() / dev.Capacity
			} else {
				trainGrant = r.GrantedLast() / dev.Capacity
			}
		}
		dInf, dTot := inf-lastInf, tot-lastTotal
		lastInf, lastTotal = inf, tot
		ratio := 0.0
		if dTot > 0 {
			ratio = dInf / dTot
		}
		// The engine fires the 1 Hz sampler before the tick at the same
		// instant, so the trace's last point is this second's arrivals.
		var offered float64
		if pts := f.RPSTrace.Points; len(pts) > 0 {
			offered = pts[len(pts)-1].Value
		}
		_ = w.Write([]string{
			fmt.Sprintf("%.0f", now.Seconds()),
			fmt.Sprintf("%.0f", offered),
			fmt.Sprintf("%.4f", ratio),
			fmt.Sprintf("%.0f", tot),
			fmt.Sprintf("%.3f", dev.LastOccupancy()),
			fmt.Sprintf("%.3f", infGrant),
			fmt.Sprintf("%.3f", trainGrant),
		})
	})
	sys.Run(sim.FromSeconds(*dur))
	return 0
}
