package sim

import "sync/atomic"

// Meter accumulates virtual-time accounting across one or more engines.
// The experiment harness attaches one Meter per run so that concurrent
// runs each see only their own engines; all counters are atomic, so a
// single Meter may also be shared by engines running on different
// goroutines.
//
// A Meter never influences simulation behaviour — it only observes — so
// metered and unmetered runs of the same scenario produce identical
// results.
type Meter struct {
	virtual atomic.Int64 // virtual µs advanced by Engine.Run
	engines atomic.Int64 // engines attached via SetMeter
	ticks   atomic.Int64 // fixed ticks fired
}

// Virtual returns the total virtual time advanced by all attached engines.
func (m *Meter) Virtual() Duration { return Duration(m.virtual.Load()) }

// VirtualSeconds returns Virtual() in floating-point seconds.
func (m *Meter) VirtualSeconds() float64 { return Time(m.virtual.Load()).Seconds() }

// Engines returns how many engines have been attached to this meter.
func (m *Meter) Engines() int64 { return m.engines.Load() }

// Ticks returns the total number of fixed ticks fired across attached
// engines, a proxy for simulation work done.
func (m *Meter) Ticks() int64 { return m.ticks.Load() }

// AddVirtual credits d of virtual time to the meter. Engines call this
// from Run; event-replay drivers that advance virtual time without an
// engine (e.g. the large-scale placement simulation) may call it
// directly. Safe on a nil meter.
func (m *Meter) AddVirtual(d Duration) {
	if m != nil && d > 0 {
		m.virtual.Add(int64(d))
	}
}

func (m *Meter) addEngine() {
	if m != nil {
		m.engines.Add(1)
	}
}

// AddEngines credits n engines to the meter. Drivers that replay cached
// results credit the cached accounting through this so attribution stays
// deterministic regardless of which caller computed. Safe on a nil meter.
func (m *Meter) AddEngines(n int64) {
	if m != nil && n > 0 {
		m.engines.Add(n)
	}
}

func (m *Meter) addTicks(n int64) {
	if m != nil && n > 0 {
		m.ticks.Add(n)
	}
}
