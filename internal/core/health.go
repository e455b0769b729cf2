package core

import (
	"dilu/internal/cluster"
	"dilu/internal/sim"
)

// Health-aware scheduling: a 1 Hz monitor scores every GPU from the
// signals a DCGM-style agent would see — observed slowdown and
// transient-error arrivals — and ejects outliers from the schedulable
// indexes (cluster.Quarantined). Existing placements migrate
// make-before-break over churn's drain path, placement automatically
// skips quarantined capacity (Schedulable() is already the gate in
// every index), and a probe readmits the GPU once it runs clean. A
// quarantine quota caps how much capacity the monitor may eject, so a
// correlated gray event cannot trick it into shrinking the fleet below
// what the traffic needs.

// The health monitor's fixed thresholds.
const (
	// slowdownThreshold is the device slowdown factor at or above which
	// one 1 Hz sample quarantines the GPU: the factor is read directly
	// from the device, so a single sample is a verdict, not noise. A
	// readmit probe also requires the factor back below it.
	slowdownThreshold = 2.0
	// errorThreshold errors within errorWindow quarantine the GPU: one
	// error is transient, three in 30 s is a flaky device.
	errorThreshold = 3
	errorWindow    = 30 * sim.Second
	// probeAfter is the quarantine dwell before a readmit probe, a few
	// 1 Hz samples; a dirty probe resets the clock.
	probeAfter = 5 * sim.Second
	// maxQuarantineFrac caps simultaneously quarantined GPUs at a
	// quarter of the fleet, so a correlated gray event cannot shrink
	// serving capacity below what the traffic needs.
	maxQuarantineFrac = 0.25
)

// gpuHealth is the monitor's per-GPU score state.
type gpuHealth struct {
	errs        []sim.Time // error arrivals inside the sliding window
	quarantined bool
	// errsSince counts errors observed while quarantined; a probe
	// readmits only after a zero-error dwell.
	errsSince int
}

// healthMonitor samples GPU health at 1 Hz (riding System.sample) and
// drives the quarantine/probe/readmit cycle.
type healthMonitor struct {
	sys         *System
	state       []gpuHealth // parallel to Clu.GPUs()
	index       map[*cluster.GPU]int
	quarantined int
}

func newHealthMonitor(sys *System) *healthMonitor {
	gpus := sys.Clu.GPUs()
	m := &healthMonitor{
		sys:   sys,
		state: make([]gpuHealth, len(gpus)),
		index: make(map[*cluster.GPU]int, len(gpus)),
	}
	for i, g := range gpus {
		m.index[g] = i
	}
	return m
}

// sample is the 1 Hz scoring pass: read each device's slowdown factor
// and quarantine the stragglers.
func (m *healthMonitor) sample(now sim.Time) {
	for i, g := range m.sys.Clu.GPUs() {
		st := &m.state[i]
		if !st.quarantined && g.Dev.Slowdown() >= slowdownThreshold {
			m.quarantine(g, st)
		}
	}
}

// observeError feeds one transient-error arrival into the GPU's sliding
// window (called by ErrorGPU at injection time).
func (m *healthMonitor) observeError(g *cluster.GPU, now sim.Time) {
	i, ok := m.index[g]
	if !ok {
		return
	}
	st := &m.state[i]
	if st.quarantined {
		st.errsSince++
		return
	}
	st.errs = append(st.errs, now)
	cut := 0
	for cut < len(st.errs) && now-st.errs[cut] > errorWindow {
		cut++
	}
	if cut > 0 {
		st.errs = append(st.errs[:0], st.errs[cut:]...)
	}
	if len(st.errs) >= errorThreshold {
		m.quarantine(g, st)
	}
}

// quarantine ejects one GPU: out of the schedulable indexes, existing
// instances migrated make-before-break (churn's drain path — the
// replacement cold-starts elsewhere before the old instance retires),
// probe scheduled. The quota and lifecycle guards keep the monitor off
// churn-owned (draining/failed) GPUs and bound total ejected capacity.
func (m *healthMonitor) quarantine(g *cluster.GPU, st *gpuHealth) {
	sys := m.sys
	if g.Health() != cluster.Healthy {
		return
	}
	total := len(m.state)
	if float64(m.quarantined+1) > maxQuarantineFrac*float64(total) {
		return // quota: keep serving on a degraded device over shrinking the fleet
	}
	st.quarantined = true
	st.errsSince = 0
	st.errs = st.errs[:0]
	m.quarantined++
	sys.Clu.QuarantineGPU(g)
	sys.faults.Quarantines++
	before := sys.churn.MigratedInstances
	for _, f := range sys.funcs {
		f.sweepWarmRetired()
		f.migrateRetired()
	}
	for _, tj := range sys.jobs {
		tj.preemptRetired(false)
	}
	sys.faults.QuarantineMigrations += sys.churn.MigratedInstances - before
	sys.Eng.After(probeAfter, func(at sim.Time) { m.probe(g, at) })
}

// probe decides readmission after the quarantine dwell: clean (no
// errors while quarantined, slowdown back under threshold) readmits;
// dirty resets the dwell and re-probes. If churn failed or drained the
// GPU meanwhile, the monitor hands the device over to that lifecycle.
func (m *healthMonitor) probe(g *cluster.GPU, at sim.Time) {
	st := &m.state[m.index[g]]
	if g.Health() != cluster.Quarantined {
		if st.quarantined {
			st.quarantined = false
			m.quarantined--
		}
		return
	}
	if st.errsSince == 0 && g.Dev.Slowdown() < slowdownThreshold {
		st.quarantined = false
		m.quarantined--
		m.sys.Clu.ReadmitGPU(g)
		m.sys.faults.Readmits++
		return
	}
	st.errsSince = 0
	m.sys.Eng.After(probeAfter, func(next sim.Time) { m.probe(g, next) })
}
