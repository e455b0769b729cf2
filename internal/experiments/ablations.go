package experiments

import (
	"dilu/internal/core"
	"dilu/internal/rckm"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// ControllerAblation quantifies the RCKM controller's interpretation
// choices against naive readings of Algorithm 2 on a stressful
// collocation: a RoBERTa-large inference function under a fluctuating
// Gamma workload sharing one GPU with a BERT-base training job. It is
// not a paper artifact; it documents why the reproduction's controller
// deviates from the literal pseudocode.
func ControllerAblation(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("ablation-controller",
		"RCKM controller ablations (README \"Reproducing the paper\", not a paper artifact)")
	dur := opts.dur(120 * sim.Second)
	variants := []struct {
		label string
		cfg   rckm.Config
	}{
		{"stabilized (default)", rckm.Config{}},
		{"no hysteresis", rckm.Config{NoHysteresis: true}},
		{"no pressure hold", rckm.Config{NoPressureHold: true}},
		{"no anti-windup", rckm.Config{NoAntiWindup: true}},
		{"literal Algorithm 2", rckm.Config{NoHysteresis: true, NoPressureHold: true, NoAntiWindup: true}},
	}
	t := rep.AddTable(report.NewTable(
		"Controller ablation: RoBERTa-large@40 CV=3 + BERT-base training, one GPU",
		"controller", "inf p95 ms", "inf SVR %", "train samples/s", "train % of request-rate"))
	for _, v := range variants {
		sys := core.MustSystem(core.Config{
			Nodes: 1, GPUsPerNode: 1, Policy: "Dilu", Seed: opts.Seed, RCKM: v.cfg,
			Meter: opts.Meter,
		})
		tj, err := sys.DeployTraining("t", "BERT-base", core.TrainOpts{Workers: 1, Pin: []int{0}})
		if err != nil {
			panic(err)
		}
		f, err := sys.DeployInference("i", "RoBERTa-large", core.InferOpts{
			Pin:      []int{0},
			Arrivals: workload.Gamma{RPS: 40, CV: 3},
		})
		if err != nil {
			panic(err)
		}
		sys.Run(dur)
		thr := tj.Throughput(sys.Eng.Now())
		atReq := tj.Spec.TrainThroughput(tj.Profile.SMReq)
		t.AddRow(v.label, f.Rec.P95().Millis(), f.Rec.ViolationRate()*100,
			thr, 100*thr/atReq)
	}
	rep.AddNote("anti-windup protects training from permanent decay; pressure hold protects inference during backlogs; hysteresis damps grant oscillation")
	return rep
}
