// Package sim provides the deterministic discrete-event simulation kernel
// on which every Dilu experiment runs. Simulated time is measured in
// microseconds of virtual time; wall-clock time never enters results.
//
// The engine combines a classic event queue (one-shot callbacks at
// arbitrary times) with fixed-period tickers, which is the natural shape
// for Dilu: request arrivals and cold-start completions are events, while
// the RCKM token cycle and GPU execution advance on a fixed 5 ms tick.
//
// Three properties keep the hot path cheap at scale without changing
// results:
//
//   - The event queue is a value-based 4-ary min-heap: scheduling an
//     event appends into a reused backing array instead of boxing a
//     per-event allocation behind container/heap's interface{} API.
//     Pop order is totally determined by (time, sequence), so the heap's
//     internal arrangement never affects behaviour.
//   - Series of events to one callback (request arrivals, churn and
//     fault schedules) are registered as a Cursor through
//     ScheduleCursor or ScheduleSeries. The engine holds only each
//     series' next entry and pulls the one after when it fires, so an
//     arrival process is drawn as the run reaches it, in O(1) memory
//     per series.
//   - Tickers registered through AddDynamicTicker carry an activity bit.
//     While every dynamic ticker is inactive (and no always-active ticker
//     exists), Run fast-forwards virtual time straight to the next event
//     instead of stepping through empty 5 ms boundaries. The tick phase
//     is preserved — the next fired tick lands on exactly the same
//     period lattice as if every empty tick had been stepped — so a
//     component that deactivates only when its Tick is a no-op observes
//     bit-identical results.
package sim

import (
	"fmt"
)

// Time is virtual simulation time in microseconds since the start of a run.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration = Time

// Common durations, mirroring time.Duration style but in virtual µs.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// TickPeriod is the RCKM token issuing period from the paper (5 ms).
const TickPeriod = 5 * Millisecond

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to virtual time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

type event struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// eventHeap is a value-based 4-ary min-heap ordered by (at, seq). The
// backing array doubles as its own free-list: popped slots are reused by
// later pushes, so a steady-state workload schedules events with zero
// per-event heap allocations. (at, seq) is a total order — seq is unique
// — so pop order is independent of sibling arrangement.
type eventHeap []event

func (h event) less(o event) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

// push appends e and sifts it up to its heap position.
func (h *eventHeap) push(e event) {
	a := *h
	i := len(a)
	a = append(a, e)
	for i > 0 {
		parent := (i - 1) / 4
		if !a[i].less(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	*h = a
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n].fn = nil // release the closure to the GC; the slot itself is reused
	a = a[:n]
	*h = a
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if a[c].less(a[min]) {
				min = c
			}
		}
		if !a[min].less(a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// Cursor is a pull source of non-decreasing times: each Next returns
// the next time and true, or false once the source is exhausted — and
// on every call after that. A generated cursor (an arrival process)
// draws each time only when Next asks for it, so a source over an
// hours-long bound costs O(1) memory however many entries it could
// yield.
type Cursor interface {
	Next() (Time, bool)
}

// SliceCursor is a Cursor over a fixed series (a churn, fault or trace
// schedule). It only reads the slice, so one slice may back cursors on
// engines running in parallel.
type SliceCursor struct {
	times []Time
	next  int
}

// NewSliceCursor returns a cursor over times, which must be
// non-decreasing and must not be modified while the cursor is live.
func NewSliceCursor(times []Time) *SliceCursor { return &SliceCursor{times: times} }

// Next implements Cursor.
func (c *SliceCursor) Next() (Time, bool) {
	if c.next >= len(c.times) {
		return 0, false
	}
	c.next++
	return c.times[c.next-1], true
}

// Remaining reports how many entries Next has yet to return.
func (c *SliceCursor) Remaining() int { return len(c.times) - c.next }

// eventStream is a time-sorted series of callbacks to one shared
// function (a request-arrival process, a churn or fault schedule),
// pulled from its cursor one entry at a time. The engine merges stream
// heads with the heap top by (at, seq). Every entry carries the single
// seq reserved when the stream was registered; no other event's seq
// falls between that stream's entries, so the series orders against
// other events (including exact-time ties) exactly as if each entry had
// been Scheduled individually at registration, while costing one pulled
// head instead of a heap slot per entry.
type eventStream struct {
	at   Time // absolute time of the pulled head
	seq  uint64
	base Time
	src  Cursor
	fn   func(Time)
}

// head returns the stream's next event.
func (s *eventStream) head() event { return event{at: s.at, seq: s.seq, fn: s.fn} }

// Ticker is a component invoked on every fixed simulation tick, in
// registration order. Tick receives the current virtual time.
type Ticker interface {
	Tick(now Time)
}

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(now Time)

// Tick calls f(now).
func (f TickerFunc) Tick(now Time) { f(now) }

// tickerEntry is one registered ticker with its activity bit.
type tickerEntry struct {
	t       Ticker
	active  bool
	dynamic bool
}

// TickerHandle controls the activity of a ticker registered with
// AddDynamicTicker. It is engine-owned and not safe for concurrent use.
type TickerHandle struct {
	e   *Engine
	idx int
}

// SetActive flips the ticker's activity. An inactive ticker is not
// invoked on ticks, and while no ticker on the engine is active, Run
// fast-forwards across empty tick boundaries (see package comment). The
// caller contracts that the ticker's Tick is a no-op whenever it is
// deactivated; under that contract results are bit-identical to an
// always-active registration.
func (h *TickerHandle) SetActive(active bool) {
	ent := &h.e.tickers[h.idx]
	if ent.active == active {
		return
	}
	ent.active = active
	if active {
		h.e.activeTickers++
	} else {
		h.e.activeTickers--
	}
}

// Active reports the ticker's current activity.
func (h *TickerHandle) Active() bool { return h.e.tickers[h.idx].active }

// Engine is a single-threaded deterministic simulator. It is not safe for
// concurrent use; experiments that need parallelism run independent engines.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	streams []eventStream
	tickers []tickerEntry
	// activeTickers counts tickers with active=true; when it is zero the
	// Run loop fast-forwards across tick boundaries.
	activeTickers int
	period        Duration
	// nextTick is the time of the next pending fixed tick.
	nextTick Time
	// meter, when non-nil, observes virtual time advanced by Run.
	meter *Meter
}

// NewEngine returns an engine whose fixed tick period is TickPeriod (5 ms).
func NewEngine() *Engine { return NewEngineWithPeriod(TickPeriod) }

// NewEngineWithPeriod returns an engine with a custom fixed tick period.
// Period must be positive.
func NewEngineWithPeriod(period Duration) *Engine {
	if period <= 0 {
		panic("sim: tick period must be positive")
	}
	return &Engine{period: period, nextTick: period}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetMeter attaches a Meter that observes this engine's progress. Passing
// nil detaches. Attaching counts the engine on the meter exactly once per
// call with a non-nil meter.
func (e *Engine) SetMeter(m *Meter) {
	e.meter = m
	m.addEngine()
}

// Period returns the fixed tick period.
func (e *Engine) Period() Duration { return e.period }

// AddTicker registers t to be invoked on every fixed tick. Tickers added
// this way are always active; use AddDynamicTicker for components that
// can deregister while idle.
func (e *Engine) AddTicker(t Ticker) {
	e.tickers = append(e.tickers, tickerEntry{t: t, active: true})
	e.activeTickers++
}

// AddDynamicTicker registers t like AddTicker but returns a handle whose
// SetActive lets the component deregister from the tick loop while it has
// no work and re-register when work arrives. The ticker starts active.
func (e *Engine) AddDynamicTicker(t Ticker) *TickerHandle {
	e.tickers = append(e.tickers, tickerEntry{t: t, active: true, dynamic: true})
	e.activeTickers++
	return &TickerHandle{e: e, idx: len(e.tickers) - 1}
}

// Schedule registers fn to run at virtual time at. Events scheduled in the
// past run at the current time, preserving submission order.
func (e *Engine) Schedule(at Time, fn func(Time)) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// After registers fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func(Time)) { e.Schedule(e.now+d, fn) }

// ScheduleSeries registers fn to run at base+times[i] for every entry of
// times, which must be non-decreasing with base+times[0] not in the
// past. It is ScheduleCursor over a SliceCursor: equivalent to calling
// Schedule(base+t, fn) for each t, but without filling the heap. The
// engine only reads times; the caller must not modify it.
func (e *Engine) ScheduleSeries(base Time, times []Time, fn func(Time)) {
	e.ScheduleCursor(base, NewSliceCursor(times), fn)
}

// ScheduleCursor registers fn to run at base+t for every time t the
// cursor yields. The engine pulls one entry at registration and the
// next each time one fires, before that entry's callback runs, so Next
// must not depend on what fn does. A generated cursor thus draws at
// most one entry past the end of the run. Ordering against other
// events, exact-time ties included, is that of a Schedule call per
// entry made now. Entries must be non-decreasing with the first not in
// the past; a violation panics when the offending entry is pulled.
func (e *Engine) ScheduleCursor(base Time, c Cursor, fn func(Time)) {
	t, ok := c.Next()
	if !ok {
		return
	}
	if base+t < e.now {
		panic("sim: series starts in the past")
	}
	e.seq++
	e.streams = append(e.streams, eventStream{at: base + t, seq: e.seq, base: base, src: c, fn: fn})
}

// advance pulls stream i's next entry, releasing the stream once its
// cursor is exhausted (order among streams is irrelevant — (at, seq)
// decides everything).
func (e *Engine) advance(i int) {
	s := &e.streams[i]
	if t, ok := s.src.Next(); ok {
		if s.base+t < s.at {
			panic("sim: series times must be non-decreasing")
		}
		s.at = s.base + t
		return
	}
	last := len(e.streams) - 1
	e.streams[i] = e.streams[last]
	e.streams[last] = eventStream{}
	e.streams = e.streams[:last]
}

// Pending reports the number of queued one-shot events plus each
// stream's pulled head and, for a SliceCursor, its remaining entries. A
// generated cursor counts only its head: its later entries are not
// drawn yet.
func (e *Engine) Pending() int {
	n := len(e.events) + len(e.streams)
	for i := range e.streams {
		if c, ok := e.streams[i].src.(*SliceCursor); ok {
			n += c.Remaining()
		}
	}
	return n
}

// earliestAt returns the time of the earliest pending event across the
// heap and the streams.
func (e *Engine) earliestAt() (Time, bool) {
	var at Time
	have := false
	if len(e.events) > 0 {
		at, have = e.events[0].at, true
	}
	for i := range e.streams {
		if h := e.streams[i].at; !have || h < at {
			at, have = h, true
		}
	}
	return at, have
}

// popDue removes and returns the earliest pending event if it is due at
// or before bound.
func (e *Engine) popDue(bound Time) (event, bool) {
	src := -1 // -1: heap
	var best event
	have := false
	if len(e.events) > 0 {
		best, have = e.events[0], true
	}
	for i := range e.streams {
		if h := e.streams[i].head(); !have || h.less(best) {
			best, src, have = h, i, true
		}
	}
	if !have || best.at > bound {
		return event{}, false
	}
	if src < 0 {
		e.events.pop()
	} else {
		e.advance(src)
	}
	return best, true
}

// Run advances virtual time until `until`, executing every due event and
// fixed tick in deterministic order: all events at or before a tick boundary
// run first, then the tick fires. While no ticker is active, boundaries
// with nothing to do are skipped wholesale (idle fast-forward): virtual
// time jumps to the next event — or the horizon — and the tick phase is
// realigned onto the same 5 ms lattice it would have reached by stepping.
// Run returns early, at a tick boundary, once the engine's meter is
// stopped (see Meter.Stop).
func (e *Engine) Run(until Time) {
	start := e.now
	ticks := int64(0)
	for e.now < until && !e.meter.Stopped() {
		if e.activeTickers == 0 {
			// No ticker can observe the skipped boundaries. Jump the
			// tick lattice forward to the first boundary at or after the
			// next event (or the horizon), preserving phase.
			target := until
			if at, ok := e.earliestAt(); ok && at < target {
				target = at
			}
			if target > e.nextTick {
				k := (target - e.nextTick + e.period - 1) / e.period
				e.nextTick += k * e.period
			}
		}
		boundary := e.nextTick
		if boundary > until {
			boundary = until
		}
		// Drain events due at or before the boundary.
		for {
			ev, ok := e.popDue(boundary)
			if !ok {
				break
			}
			e.now = ev.at
			ev.fn(e.now)
		}
		e.now = boundary
		if boundary == e.nextTick {
			for i := range e.tickers {
				if e.tickers[i].active {
					e.tickers[i].t.Tick(e.now)
				}
			}
			e.nextTick += e.period
			ticks++
		}
	}
	e.meter.AddVirtual(e.now - start)
	e.meter.addTicks(ticks)
}

// Step advances exactly one fixed tick (running due events first) and
// returns the new time. Useful in unit tests.
func (e *Engine) Step() Time {
	e.Run(e.nextTick)
	return e.now
}
