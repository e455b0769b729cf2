package experiments

import (
	"dilu/internal/cluster"
	"dilu/internal/report"
	"dilu/internal/sim"
)

// Hyperscale pushes the §5.5 placement simulation an order of magnitude
// past the paper: 10,000 nodes × 4 GPUs (40k GPUs) absorbing ~32,000
// instances of the training/LLM/inference mix. The paper's large-scale
// claim only matters if the scheduler itself keeps up as the world
// grows — this driver is the scenario the cluster's posting/occupancy
// indexes exist for, and BenchmarkHyperscalePlacement pins the
// sub-linear placement cost it relies on (a full-scan Algorithm 1
// spends ~27 s placing this mix; the indexed scheduler, well under a
// second).
//
// Scale maps the driver between CI and full size: node and instance
// counts scale together (floored at the paper's 1,000 nodes / 3,200
// instances), so densities — and therefore the fragmentation story —
// stay comparable across scales.
func Hyperscale(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("hyperscale", "Hyperscale placement (40k GPUs, 32k instances)")
	nodes := int(10000 * opts.Scale)
	if nodes < 1000 {
		nodes = 1000
	}
	total := int(32000 * opts.Scale)
	if total < 3200 {
		total = 3200
	}
	horizon := 3600 * sim.Second
	mix := largeScaleMix(total, horizon, sim.NewRNG(opts.Seed))
	order := []string{"Exclusive", "INFless+-l", "Dilu"}
	scheds := figure17Schedulers()
	t := rep.AddTable(report.NewTable(
		"Hyperscale. Occupancy and fragmentation at cluster ×10",
		"scheduler", "placed", "peak GPUs", "SM frag", "mem frag", "GPU-hours", "cost vs Exclusive"))
	var exclusiveGPUh float64
	for _, name := range order {
		occ, stats, gpuSeconds, placed := runLargeScaleOn(scheds[name], mix, horizon, nodes)
		opts.Meter.AddVirtual(horizon)
		gpuH := gpuSeconds / 3600
		if name == "Exclusive" {
			exclusiveGPUh = gpuH
		}
		t.AddRow(name, placed, occ.Max(), stats.SMFrag, stats.MemFrag, gpuH,
			gpuH/maxf(exclusiveGPUh, 1e-9))
		rep.AddSeries(occ.Downsample(120 * sim.Second))
	}
	rep.AddNote("extends Figure 17 an order of magnitude past §5.5: the cost and fragmentation ordering must survive 40k GPUs")
	return rep
}

// HyperscaleMax pushes the placement simulation to its scale ceiling:
// 62,500 nodes × 4 GPUs (250,000 GPUs) absorbing ~200,000 instances of
// the §5.5 mix — ×6 past the hyperscale driver, ×62 past the paper. Only
// Dilu runs here (the baselines' story is told at 40k); the point of
// this driver is that one serial run completes at a quarter million
// GPUs. Scale maps the size down the same way Hyperscale does, flooring
// at the paper's 1,000 nodes.
func HyperscaleMax(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("hyperscale_max", "Hyperscale ceiling (250k GPUs, 200k instances)")
	nodes := int(62500 * opts.Scale)
	if nodes < 1000 {
		nodes = 1000
	}
	total := int(200000 * opts.Scale)
	if total < 3200 {
		total = 3200
	}
	horizon := 3600 * sim.Second
	mix := largeScaleMix(total, horizon, sim.NewRNG(opts.Seed))
	t := rep.AddTable(report.NewTable(
		"Hyperscale ceiling. One Dilu run at cluster ×62",
		"scheduler", "GPUs", "placed", "peak GPUs", "SM frag", "mem frag", "GPU-hours"))
	occ, stats, gpuSeconds, placed := runLargeScaleOn(
		figure17Schedulers()["Dilu"], mix, horizon, nodes)
	opts.Meter.AddVirtual(horizon)
	t.AddRow("Dilu", nodes*4, placed, occ.Max(), stats.SMFrag, stats.MemFrag, gpuSeconds/3600)
	rep.AddSeries(occ.Downsample(120 * sim.Second))
	rep.AddNote("the scale ceiling: one serial Algorithm 1 replay over the cluster's incremental placement indexes keeps a 250k-GPU run tractable")
	return rep
}

// HyperscaleScheduleBatch places n instances of the §5.5 mix on a
// hyperscale (nodes × 4 GPU) cluster through every comparison
// scheduler, returning per-scheduler placement counts. It backs the
// placement-cost benchmark; the driver above reports the steady-state
// occupancy story.
func HyperscaleScheduleBatch(nodes, n int, seed int64) map[string]int {
	out := make(map[string]int, 3)
	for name, mk := range figure17Schedulers() {
		clu := cluster.New(cluster.Config{Nodes: nodes, GPUsPerNode: 4})
		out[name] = ScheduleBatchWith(mk(clu), n, seed)
	}
	return out
}
