// Staged cold starts: the serving-plane half of the cold-start stage
// model. model.ColdStartStages supplies the decomposition (image init,
// parameter load, kernel JIT); this file applies the node-local kernel
// cache to shrink the JIT stage on relaunch, stamps each request freed
// by a cold launch with the stage actually on its critical path, and
// rolls cache/stage activity into the SLO summary's cold-start block.
package core

import (
	"dilu/internal/metrics"
	"dilu/internal/model"
	"dilu/internal/sched"
	"dilu/internal/sim"
)

// ColdStartConfig tunes the staged cold-start model and its node-local
// kernel caches. The zero value is the defaults.
type ColdStartConfig struct {
	// JITFactor scales the kernel-JIT stage of a cold launch whose
	// target nodes all hold compiled kernels for the function: 0 (the
	// default) skips the stage entirely, 0.5 halves it, 1 disables the
	// shortening while keeping the caches live.
	JITFactor float64
	// CacheCap bounds each node's kernel cache (LRU entries); <= 0
	// defaults to 32 functions per node.
	CacheCap int
}

func (c ColdStartConfig) withDefaults() ColdStartConfig {
	if c.CacheCap <= 0 {
		c.CacheCap = 32
	}
	return c
}

// coldStartStats aggregates the run's cold-launch activity for the SLO
// summary's cold-start block.
type coldStartStats struct {
	KernelCacheHits   int64
	KernelCacheMisses int64
	PrewarmLaunches   int64
	ColdLaunches      int64
	ColdTime          sim.Duration
}

// coldStages returns the effective stage durations for a cold launch
// on the decision's GPUs. A launch whose target nodes all hold compiled
// kernels for the function shrinks its JIT stage by JITFactor;
// multi-node instances hit only when every node is warm (each shard
// JITs locally). A miss pays the full decomposition, which sums exactly
// to Spec.ColdStart().
func (f *Function) coldStages(dec sched.Decision) model.ColdStartStages {
	st := f.Spec.ColdStartStages()
	warm := len(dec.GPUs) > 0
	for _, g := range dec.GPUs {
		if !g.Node.KernelsWarm(f.Name) {
			warm = false
			break
		}
	}
	if warm {
		f.sys.coldStats.KernelCacheHits++
		st.KernelJIT = sim.Duration(float64(st.KernelJIT) * f.sys.cfg.ColdStart.JITFactor)
	} else {
		f.sys.coldStats.KernelCacheMisses++
	}
	return st
}

// noteKernels records the function's kernels as compiled on every node
// the decision touches — called when an instance activates (its JIT,
// full or shortened, has completed by then).
func (f *Function) noteKernels(dec sched.Decision) {
	for _, g := range dec.GPUs {
		g.Node.Kernels.Note(f.Name)
	}
}

// coldStageOnPath attributes a request freed by a cold launch to the
// launch stage its wait overlapped the most: the launch window is
// [ready − total, ready], split into the three stage segments, and the
// stage with the maximum overlap of [arrive, ready] wins (earlier
// stage on exact ties). A request that never waited inside the window
// gets ColdNone.
func coldStageOnPath(arrive, ready sim.Time, st model.ColdStartStages) metrics.ColdStage {
	start := ready - sim.Time(st.Total())
	if arrive < start {
		arrive = start
	}
	if arrive >= ready {
		return metrics.ColdNone
	}
	b1 := start + sim.Time(st.ImageInit)
	b2 := b1 + sim.Time(st.ModelLoad)
	overlap := func(lo, hi sim.Time) sim.Duration {
		if arrive > lo {
			lo = arrive
		}
		if hi <= lo {
			return 0
		}
		return sim.Duration(hi - lo)
	}
	best, bestStage := sim.Duration(0), metrics.ColdNone
	for _, seg := range [...]struct {
		lo, hi sim.Time
		stage  metrics.ColdStage
	}{
		{start, b1, metrics.ColdImageInit},
		{b1, b2, metrics.ColdModelLoad},
		{b2, ready, metrics.ColdKernelJIT},
	} {
		if ov := overlap(seg.lo, seg.hi); ov > best {
			best, bestStage = ov, seg.stage
		}
	}
	return bestStage
}

// coldStartSLO assembles the SLO summary's cold-start block.
func (sys *System) coldStartSLO() metrics.ColdStartSLO {
	cs := metrics.ColdStartSLO{
		KernelCacheHits:   sys.coldStats.KernelCacheHits,
		KernelCacheMisses: sys.coldStats.KernelCacheMisses,
		PrewarmLaunches:   sys.coldStats.PrewarmLaunches,
		ColdLaunches:      sys.coldStats.ColdLaunches,
		ColdMillisTotal:   sys.coldStats.ColdTime.Millis(),
	}
	for _, f := range sys.funcs {
		cs.ImageInitViolations += int64(f.Rec.StageViolations(metrics.ColdImageInit))
		cs.ModelLoadViolations += int64(f.Rec.StageViolations(metrics.ColdModelLoad))
		cs.KernelJITViolations += int64(f.Rec.StageViolations(metrics.ColdKernelJIT))
		cs.WarmQueueViolations += int64(f.Rec.WarmQueueViolations())
	}
	return cs
}
