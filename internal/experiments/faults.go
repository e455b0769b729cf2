package experiments

import (
	"dilu/internal/core"
	"dilu/internal/model"
	"dilu/internal/profiler"
	"dilu/internal/report"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// Gray-failure drivers: the degraded-but-alive regime between healthy
// and fail-stop that churn_recovery/rolling_drain never enter. Slow
// GPUs keep accepting work (and the scheduler keeps offering them),
// flaky devices burn batches without dying — DeepServe's
// fast-detection/recovery concern and FlexPipe's inflight adaptation,
// expressed as mitigations-on-vs-off comparisons over one seeded
// adversarial schedule.

// graySchedule builds the adversarial fault schedule both gray drivers'
// faulted arms replay: a staggered straggler population (StragglerMix)
// plus a flaky node emitting a triangular error wave (FaultWave), both
// seeded — the same schedule hits the mitigated and unmitigated runs.
func graySchedule(seed int64, nodes, gpusPerNode int, dur sim.Duration) []workload.FaultEvent {
	rng := sim.NewRNG(seed + 7001)
	slowStart := dur / 6
	slowDur := dur / 2
	events := workload.StragglerMix(rng, nodes, gpusPerNode,
		slowStart, dur/20, slowDur, 2, 6.0)
	events = append(events, workload.FaultWave(rng, 0, gpusPerNode,
		dur/10, dur*2/3, 2.5)...)
	workload.SortFaults(events)
	return events
}

// GrayFailure is the quick-tier mitigations-on/off comparison: a fixed
// 2×4 fleet serving near capacity, one adversarial schedule (stragglers
// + a flaky node), three arms — fault-free baseline, faults without
// mitigations, faults with hedge/quarantine. The mitigated arm's
// SLO summary (with the per-cause resilience columns) is the pinned
// block; the experiments test asserts the p99-attainment restoration at
// the golden scale.
func GrayFailure(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("gray_failure", "Gray failures: hedge/quarantine vs an adversarial slowdown+error schedule (extra)")
	dur := opts.dur(60 * sim.Second)

	const modelName = "ResNet152"
	const nodes, gpusPerNode = 2, 4
	spec := model.ByName(modelName)
	prof := profiler.For(spec, profiler.RoleInference)
	instances := nodes * gpusPerNode // one per GPU: every fault lands on serving capacity
	demand := 0.5 * float64(instances) * prof.ServingRPS
	schedule := graySchedule(opts.Seed, nodes, gpusPerNode, dur)

	arms := []struct {
		name      string
		faults    bool
		mitigated bool
	}{
		{"fault-free", false, false},
		{"faults", true, false},
		{"faults+mitigation", true, true},
	}

	t := rep.AddTable(report.NewTable(
		"Gray failure: admitted-traffic SLO attainment by arm (same seed, same schedule)",
		"arm", "reqs", "p99 ms", "p99 attain %", "goodput rps",
		"hedge wins", "quarantines", "migrations"))

	for _, arm := range arms {
		sys := core.MustSystem(core.Config{
			Nodes: nodes, GPUsPerNode: gpusPerNode, Seed: opts.Seed, Meter: opts.Meter,
			Hedge: arm.mitigated, Quarantine: arm.mitigated,
		})
		if _, err := sys.DeployInference("gray-fn", modelName, core.InferOpts{
			Instances: instances, NoScaler: true,
			Deadline: spec.SLO,
			Arrivals: workload.Poisson{RPS: demand},
		}); err != nil {
			panic(err)
		}
		if arm.faults {
			sys.ScheduleFaults(schedule)
		}
		sys.Run(dur)
		sum := sys.SLOSummary()
		fs := sys.FaultStats()
		var p99 float64
		for _, st := range sum.Funcs {
			if st.P99Millis > p99 {
				p99 = st.P99Millis
			}
		}
		var hedgeWins int64
		for _, f := range sys.Functions() {
			hedgeWins += f.ResilienceStats().HedgeWins
		}
		t.AddRow(arm.name, float64(sum.Requests), p99, sum.P99Attainment*100,
			sum.GoodputRPS, hedgeWins, fs.Quarantines, fs.QuarantineMigrations)
		if arm.name == "faults+mitigation" {
			rep.SetSLO(sum)
		}
	}
	rep.AddNote("one seeded schedule (%d events: stragglers 4× + flaky-node error wave) hits both faulted arms; mitigations hedge deadline requests and quarantine outliers via the make-before-break drain path", len(schedule))
	return rep
}

// StragglerTail is the standard-tier tail-latency study: a pure
// straggler population (no errors) against hedging on vs off —
// isolating what speculative duplicates buy at the tail, the classic
// tail-at-scale result.
func StragglerTail(opts Options) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("straggler_tail", "Straggler tail: hedged dispatch vs no hedging under a slow-GPU population (extra)")
	dur := opts.dur(120 * sim.Second)

	const modelName = "BERT-base"
	const nodes, gpusPerNode = 2, 4
	spec := model.ByName(modelName)
	prof := profiler.For(spec, profiler.RoleInference)
	gpus := nodes * gpusPerNode
	instances := 2 * gpus
	demand := 0.35 * float64(gpus) * prof.ServingRPS
	// Pin the straggler to GPU (0,0): placement packs in index order and
	// dispatch concentrates on the earliest instances, so that device
	// always carries live traffic while the rest of the fleet keeps the
	// headroom hedged duplicates need to win their races.
	stragglers := workload.StragglerMix(sim.NewRNG(opts.Seed+7101), 1, 1,
		dur/8, dur/30, dur/2, 1, 6.0)

	arms := []struct {
		name  string
		hedge bool
	}{
		{"no-hedge", false},
		{"hedge", true},
	}

	t := rep.AddTable(report.NewTable(
		"Straggler tail: per-arm attainment (same straggler schedule)",
		"arm", "reqs", "p95 ms", "p99 ms", "goodput rps", "hedges", "hedge wins"))

	for _, arm := range arms {
		sys := core.MustSystem(core.Config{
			Nodes: nodes, GPUsPerNode: gpusPerNode, Seed: opts.Seed, Meter: opts.Meter,
			Hedge: arm.hedge,
		})
		if _, err := sys.DeployInference("tail-fn", modelName, core.InferOpts{
			Instances: instances, NoScaler: true,
			Deadline: spec.SLO,
			Arrivals: workload.Poisson{RPS: demand},
		}); err != nil {
			panic(err)
		}
		sys.ScheduleFaults(stragglers)
		sys.Run(dur)
		sum := sys.SLOSummary()
		var rs core.ResilienceStats
		for _, f := range sys.Functions() {
			st := f.ResilienceStats()
			rs.Hedges += st.Hedges
			rs.HedgeWins += st.HedgeWins
		}
		var p95, p99 float64
		for _, st := range sum.Funcs {
			if st.P95Millis > p95 {
				p95 = st.P95Millis
			}
			if st.P99Millis > p99 {
				p99 = st.P99Millis
			}
		}
		t.AddRow(arm.name, float64(sum.Requests), p95, p99, sum.GoodputRPS,
			rs.Hedges, rs.HedgeWins)
		if arm.hedge {
			rep.SetSLO(sum)
		}
	}
	rep.AddNote("one pinned GPU of %d runs 6× slow for half the run; a hedge races each deadline request on a second instance after half an SLO of waiting, so the tail rides the fast copy: the gap between the arms is the hedge's", gpus)
	return rep
}

// DisturbanceReplayOn replays external churn and/or fault schedules
// (the -churn / -faults CSV flags of cmd/dilu-bench) against the
// standard three-function serving mix on a Dilu system with quarantine
// enabled — the harness entry point for reproducing a recorded
// production incident. Hedging is left off: the mix carries no deadline
// requests, the only ones a hedge races.
func DisturbanceReplayOn(opts Options, churn []workload.ChurnEvent, faults []workload.FaultEvent) *report.Report {
	opts = opts.withDefaults()
	rep := report.New("disturbance_replay", "External churn/fault schedule replay (extra)")
	dur := opts.dur(120 * sim.Second)

	sys := core.MustSystem(core.Config{
		Nodes: 5, GPUsPerNode: 4, Seed: opts.Seed, Meter: opts.Meter,
		Quarantine: true,
	})
	churnDeploy(sys, 1.0)
	sys.ScheduleChurn(churn)
	sys.ScheduleFaults(faults)
	sys.Run(dur)

	sum := sys.SLOSummary()
	cs := sys.ChurnStats()
	fs := sys.FaultStats()
	t := rep.AddTable(report.NewTable(
		"Disturbance replay: SLO accounting and lifecycle fallout",
		"reqs", "SVR %", "goodput rps", "p99 attain %",
		"failures", "drains", "slow events", "error events",
		"quarantines"))
	t.AddRow(float64(sum.Requests), sum.ViolationRate()*100, sum.GoodputRPS,
		sum.P99Attainment*100, cs.Failures, cs.Drains,
		fs.SlowEvents, fs.ErrorEvents, fs.Quarantines)
	rep.SetSLO(sum)
	rep.AddNote("replayed %d churn + %d fault events against the three-function mix with quarantine enabled", len(churn), len(faults))
	return rep
}
