package main

// perLayer returns the per-layer metrics. Span times, call counts and
// the CPU profile come from the traced rep (t, out, p); sim.* come from
// the timed reps, whose simulated outputs all equal sim. A layer a
// workload does not exercise reads 0.
func perLayer(p *probe, t repTiming, out outcome, reps []timedRep, sim outcome, shares map[string]float64) []metric {
	generate := p.total("workload.generate")
	usedRatio := 0.0
	if p.generated > 0 {
		usedRatio = float64(out.submitted) / float64(p.generated)
	}
	tickUs := 0.0
	if sim.ticks > 0 {
		tickUs = median(collect(reps, func(r timedRep) float64 { return r.run.Seconds() })) * 1e6 / float64(sim.ticks)
	}
	medWall := median(collect(reps, repWall))
	ms := []metric{
		{"workload.generate_s", "s", generate},
		{"workload.arrivals", "count", float64(p.generated)},
		{"workload.used_ratio", "ratio", usedRatio},
		{"core.build_s", "s", p.total("core.build")},
		{"core.deploy_s", "s", p.total("core.deploy") - generate},
		{"core.run_s", "s", p.total("core.run")},
		{"core.slice_ms.p50", "ms", 1e3 * orZero(p.durations("core.slice"), 0.50)},
		{"core.slice_ms.p98", "ms", 1e3 * orZero(p.durations("core.slice"), 0.98)},
		{"core.summary_s", "s", p.total("core.summary")},
		{"core.submitted", "count", float64(out.submitted)},
		{"core.shed", "count", float64(out.shed)},
		{"core.served", "count", float64(out.served)},
		{"core.lost", "count", float64(out.lost)},
		{"core.cold_starts", "count", float64(out.coldStarts)},
		{"sim.ticks", "count", float64(sim.ticks)},
		{"sim.virtual_s", "s", sim.virtualS},
		{"sim.tick_us", "us", tickUs},
		{"scaler.decide_s", "s", p.total("scaler.decide")},
		{"scaler.scale_out", "count", float64(p.scaleOut)},
		{"scaler.scale_in", "count", float64(p.scaleIn)},
		{"instance.tokens_out", "count", float64(out.tokensOut)},
		{"instance.preemptions", "count", float64(out.preemptions)},
		{"instance.refusals", "count", float64(out.refusals)},
		{"instance.kv_peak_mb", "MiB", out.kvPeakMB},
		{"sched.schedule_s", "s", p.total("sched.schedule")},
		{"sched.schedule_us.p50", "us", 1e6 * orZero(p.durations("sched.schedule"), 0.50)},
		{"sched.schedule_us.p99", "us", 1e6 * orZero(p.durations("sched.schedule"), 0.99)},
		{"sched.calls", "count", float64(p.schedCalls)},
		{"sched.failed", "count", float64(p.schedFailed)},
		{"cluster.release_s", "s", p.total("cluster.release")},
		{"cluster.release_us.p50", "us", 1e6 * orZero(p.durations("cluster.release"), 0.50)},
		{"cluster.release_us.p99", "us", 1e6 * orZero(p.durations("cluster.release"), 0.99)},
		{"cluster.releases", "count", float64(p.releases)},
		{"cluster.peak_gpus", "count", out.peakGPUs},
		{"metrics.p99_ms", "ms", out.p99ms},
		{"metrics.goodput_rps", "1/s", out.goodputRPS},
		{"simtest.check_s", "s", p.checkTime.Seconds()},
		{"simtest.checks", "count", float64(p.checks)},
	}
	for _, m := range profModules {
		ms = append(ms, metric{"prof." + m + ".share", "fraction", shares[m]})
	}
	return append(ms, metric{"trace.overhead_s", "s", t.wall.Seconds() - medWall - p.checkTime.Seconds()})
}

// orZero is the q-quantile of xs, or 0 when the layer recorded no spans.
func orZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
