package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"dilu/internal/core"
	"dilu/internal/scaler"
	"dilu/internal/sched"
	"dilu/internal/sim"
	"dilu/internal/workload"
)

// probe records the traced rep from outside the simulator: a span around
// every call the benchmark makes into a layer's public API, and counters
// read at the same boundaries. A nil *probe is the untraced rep — every
// method passes straight through, so timed reps run the bare program.
type probe struct {
	rep   int
	epoch time.Time
	spans []span
	open  []int // indexes of the spans not yet ended, innermost last

	// checkTime and checks aggregate the invariant checkers, which fire
	// hundreds of thousands of times per rep — too many to keep as spans.
	// Their time is still charged to the enclosing span as child time.
	checkTime time.Duration
	checks    int64

	generated                         int64 // arrivals returned by Arrivals.Generate
	scaleOut, scaleIn                 int64 // non-zero answers of scaler.Policy.Decide
	schedCalls, schedFailed, releases int64
}

// span is one timed call: [start, end) since the probe's epoch. covered
// is the part of the interval taken by child spans and aggregated checks.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into probe.spans; -1 for the rep root
	covered    time.Duration
}

func newProbe(rep int) *probe { return &probe{rep: rep, epoch: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end; -1 on a nil probe.
func (p *probe) begin(name string) int {
	if p == nil {
		return -1
	}
	parent := -1
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	}
	id := len(p.spans)
	p.spans = append(p.spans, span{name: name, start: time.Since(p.epoch), parent: parent})
	p.open = append(p.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (p *probe) end(id int) {
	if p == nil {
		return
	}
	if n := len(p.open); n == 0 || p.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d ended out of order", id))
	}
	p.open = p.open[:len(p.open)-1]
	s := &p.spans[id]
	s.end = time.Since(p.epoch)
	if s.parent >= 0 {
		p.spans[s.parent].covered += s.end - s.start
	}
}

// durations returns the durations of every span named name, in seconds.
func (p *probe) durations(name string) []float64 {
	var out []float64
	for _, s := range p.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// total returns the summed duration of the spans named name, in seconds.
func (p *probe) total(name string) float64 {
	var sum float64
	for _, d := range p.durations(name) {
		sum += d
	}
	return sum
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name        string
	calls       int64
	total, self time.Duration
}

// checkLayer names the aggregated invariant-checker row.
const checkLayer = "simtest.check"

// layers returns every span name's call count, total time and self time
// (total minus the time its children cover), with the aggregated
// checkers as one more row, ordered by self time, largest first.
func (p *probe) layers() []layerRow {
	idx := map[string]int{}
	var rows []layerRow
	for _, s := range p.spans {
		i, ok := idx[s.name]
		if !ok {
			i = len(rows)
			idx[s.name] = i
			rows = append(rows, layerRow{name: s.name})
		}
		rows[i].calls++
		rows[i].total += s.end - s.start
		rows[i].self += s.end - s.start - s.covered
	}
	if p.checks > 0 {
		rows = append(rows, layerRow{name: checkLayer, calls: p.checks, total: p.checkTime, self: p.checkTime})
	}
	slices.SortStableFunc(rows, func(a, b layerRow) int { return cmp.Compare(b.self, a.self) })
	return rows
}

// writeLayerTable prints the self-time table: each row's self time also
// as a share of the rep root's duration, and for layers with spans the
// median call and the highest percentile with ten calls beyond it.
func (p *probe) writeLayerTable(w io.Writer) {
	var rep time.Duration
	if len(p.spans) > 0 {
		rep = p.spans[0].end - p.spans[0].start
	}
	fmt.Fprintf(w, "%-20s %9s %10s %10s %7s %11s  %s\n", "layer", "calls", "total_s", "self_s", "self%", "call_p50_us", "tail_us")
	for _, r := range p.layers() {
		share := 0.0
		if rep > 0 {
			share = 100 * r.self.Seconds() / rep.Seconds()
		}
		fmt.Fprintf(w, "%-20s %9d %10.4f %10.4f %6.1f%%", r.name, r.calls, r.total.Seconds(), r.self.Seconds(), share)
		if calls := p.durations(r.name); len(calls) > 0 {
			fmt.Fprintf(w, " %11.1f", 1e6*median(calls))
			if pct, ok := tailPercentile(len(calls)); ok {
				fmt.Fprintf(w, "  p%g %.1f", pct, 1e6*quantile(calls, pct/100))
			}
		}
		fmt.Fprintln(w)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`  // µs
	Dur  float64    `json:"dur"` // µs
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Span   int `json:"span"`
	Parent int `json:"parent"`
	Rep    int `json:"rep"`
}

// writeChromeTrace writes every span as Chrome trace-event JSON. All
// spans share the rep's id as their thread, so they nest on one track.
func (p *probe) writeChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range p.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		cat, _, _ := strings.Cut(s.name, ".")
		ev, err := json.Marshal(chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: p.rep, Args: chromeArgs{Span: i, Parent: s.parent, Rep: p.rep},
		})
		if err != nil {
			return err
		}
		bw.Write(ev)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// timedArrivals times each deployment's arrival generation.
type timedArrivals struct {
	workload.Arrivals
	p *probe
}

// Generate implements workload.Arrivals.
func (a timedArrivals) Generate(rng *sim.RNG, dur sim.Duration) []sim.Time {
	id := a.p.begin("workload.generate")
	out := a.Arrivals.Generate(rng, dur)
	a.p.end(id)
	a.p.generated += int64(len(out))
	return out
}

// arrivals wraps a deployment's arrival process.
func (p *probe) arrivals(a workload.Arrivals) workload.Arrivals {
	if p == nil {
		return a
	}
	return timedArrivals{a, p}
}

// timedPolicy times a function's horizontal-scaling decisions.
type timedPolicy struct {
	scaler.Policy
	p *probe
}

// Decide implements scaler.Policy.
func (t timedPolicy) Decide(now sim.Time, rps float64, instances int, perInstanceRPS float64) int {
	id := t.p.begin("scaler.decide")
	d := t.Policy.Decide(now, rps, instances, perInstanceRPS)
	t.p.end(id)
	switch {
	case d > 0:
		t.p.scaleOut++
	case d < 0:
		t.p.scaleIn++
	}
	return d
}

// scaler wraps the per-function policy factory of core.Config.NewScaler.
func (p *probe) scaler(mk func() scaler.Policy) func() scaler.Policy {
	if p == nil {
		return mk
	}
	return func() scaler.Policy { return timedPolicy{mk(), p} }
}

// invariants wraps each checker so its time and calls are aggregated;
// nil on an untraced rep, which runs no checkers.
func (p *probe) invariants(checks []core.Invariant) []core.Invariant {
	if p == nil {
		return nil
	}
	out := make([]core.Invariant, len(checks))
	for i, c := range checks {
		check := c.Check
		out[i] = core.Invariant{Name: c.Name, Check: func(sys *core.System, now sim.Time) error {
			start := time.Now()
			err := check(sys, now)
			d := time.Since(start)
			p.checkTime += d
			p.checks++
			if n := len(p.open); n > 0 {
				p.spans[p.open[n-1]].covered += d
			}
			return err
		}}
	}
	return out
}

// schedule places one request, timing the call on a traced rep.
func (p *probe) schedule(s sched.Scheduler, req sched.Request) ([]sched.Decision, error) {
	id := p.begin("sched.schedule")
	decs, err := s.Schedule(req)
	p.end(id)
	if p != nil {
		p.schedCalls++
		if err != nil {
			p.schedFailed++
		}
	}
	return decs, err
}

// release returns one decision's reservations, timing the call on a
// traced rep.
func (p *probe) release(d *sched.Decision) {
	id := p.begin("cluster.release")
	d.Release()
	p.end(id)
	if p != nil {
		p.releases++
	}
}
