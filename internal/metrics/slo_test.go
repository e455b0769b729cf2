package metrics

import (
	"math"
	"strings"
	"testing"

	"dilu/internal/sim"
)

func TestObserveWaitAttribution(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	r.ObserveWaitStage(50*sim.Millisecond, 0, ColdNone)                   // within SLO
	r.ObserveWaitStage(150*sim.Millisecond, 0, ColdNone)                  // violation, hot path
	r.ObserveWaitStage(200*sim.Millisecond, 80*sim.Millisecond, ColdNone) // violation, waited in a warm queue
	r.ObserveWaitStage(90*sim.Millisecond, 60*sim.Millisecond, ColdNone)  // waited but still met SLO
	if r.Violations() != 2 {
		t.Fatalf("violations = %d", r.Violations())
	}
	// A waited violation with no launch on its path is warm queueing,
	// not a cold-start violation.
	if r.ColdStartViolations() != 0 || r.WarmQueueViolations() != 1 {
		t.Fatalf("cold violations = %d, warm queue = %d, want 0/1",
			r.ColdStartViolations(), r.WarmQueueViolations())
	}
	if r.Goodput() != 2 {
		t.Fatalf("goodput = %d", r.Goodput())
	}
	r.Reset()
	if r.Violations() != 0 || r.ColdStartViolations() != 0 || r.WarmQueueViolations() != 0 || r.Count() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestObserveRecordsNoAttribution(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	r.Observe(150 * sim.Millisecond)
	if r.Violations() != 1 || r.ColdStartViolations() != 0 || r.WarmQueueViolations() != 0 {
		t.Fatalf("observe: v=%d cold=%d warm=%d",
			r.Violations(), r.ColdStartViolations(), r.WarmQueueViolations())
	}
}

func TestNoSLOMeansNoViolations(t *testing.T) {
	r := NewLatencyRecorder("f", 0)
	r.ObserveWaitStage(10*sim.Second, 5*sim.Second, ColdNone)
	if r.Violations() != 0 || r.Goodput() != 1 {
		t.Fatal("zero SLO must disable violation accounting")
	}
}

func TestSummarizeSLO(t *testing.T) {
	a := NewLatencyRecorder("a", 100*sim.Millisecond)
	for i := 0; i < 98; i++ {
		a.ObserveWaitStage(50*sim.Millisecond, 0, ColdNone)
	}
	a.ObserveWaitStage(150*sim.Millisecond, 10*sim.Millisecond, ColdModelLoad)
	a.ObserveWaitStage(120*sim.Millisecond, 0, ColdNone)

	b := NewLatencyRecorder("b", 50*sim.Millisecond)
	for i := 0; i < 10; i++ {
		b.ObserveWaitStage(200*sim.Millisecond, 20*sim.Millisecond, ColdImageInit)
	}

	sum := SummarizeSLO(100*sim.Second, a, b, nil)
	if len(sum.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(sum.Funcs))
	}
	if sum.Requests != 110 || sum.Violations != 12 || sum.ColdStartViolations != 11 {
		t.Fatalf("totals: %+v", sum)
	}
	// Goodput: (100-2)/100 + 0/100 = 0.98 rps.
	if math.Abs(sum.GoodputRPS-0.98) > 1e-9 {
		t.Fatalf("goodput = %v", sum.GoodputRPS)
	}
	// a attains p95 (98% of samples at 50 ms), b attains nothing.
	if sum.P95Attainment != 0.5 {
		t.Fatalf("p95 attainment = %v", sum.P95Attainment)
	}
	fa := sum.Funcs[0]
	if fa.Func != "a" || !fa.AttainedP95 || fa.AttainedP99 {
		t.Fatalf("func a stats: %+v", fa)
	}
	if got := fa.ViolationRate(); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("func a SVR = %v", got)
	}
	if got := sum.ColdStartShare(); math.Abs(got-11.0/12) > 1e-9 {
		t.Fatalf("cold share = %v", got)
	}
	if s := sum.String(); !strings.Contains(s, "110 reqs") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestSummarizeSLOEmpty(t *testing.T) {
	sum := SummarizeSLO(10 * sim.Second)
	if sum.Requests != 0 || sum.ViolationRate() != 0 || sum.ColdStartShare() != 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
	// A recorder with no samples never counts as attaining.
	empty := NewLatencyRecorder("e", sim.Second)
	sum = SummarizeSLO(10*sim.Second, empty)
	if sum.P95Attainment != 0 {
		t.Fatalf("empty recorder attained: %+v", sum)
	}
}
