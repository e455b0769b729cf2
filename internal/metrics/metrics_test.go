package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dilu/internal/sim"
)

// TestLatencyOneSortPerMutationEpoch pins the dirty-flag contract: a
// run of Percentile/P95/P99/Max calls between two mutations costs
// exactly one sort (the SLO summary path issues several in a row), and
// each new observation opens exactly one new epoch.
func TestLatencyOneSortPerMutationEpoch(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	for i := 50; i >= 1; i-- {
		r.Observe(sim.Duration(i) * sim.Millisecond)
	}
	r.P50()
	r.P95()
	r.P99()
	r.Percentile(42)
	r.Max()
	if r.sorts != 1 {
		t.Fatalf("chained percentile calls cost %d sorts, want exactly 1", r.sorts)
	}
	// A mutation opens a new epoch: one more sort, and only one.
	r.ObserveWaitStage(7*sim.Millisecond, sim.Millisecond, ColdNone)
	r.P95()
	r.P99()
	if r.sorts != 2 {
		t.Fatalf("after mutation: %d sorts, want exactly 2", r.sorts)
	}
	// No mutation since: reading percentiles again stays sort-free.
	r.P50()
	r.Max()
	if r.sorts != 2 {
		t.Fatalf("unchanged samples re-sorted: %d sorts", r.sorts)
	}
	// Reset zeroes the epoch counter and leaves an empty-but-sorted
	// recorder; the next reads must not sort until something is
	// observed, and the reused recorder starts counting from scratch.
	r.Reset()
	r.P95()
	if r.sorts != 0 {
		t.Fatalf("reset recorder kept/spent sorts: %d, want 0", r.sorts)
	}
	r.Observe(3 * sim.Millisecond)
	r.P95()
	if r.sorts != 1 {
		t.Fatalf("post-reset epoch: %d sorts, want exactly 1", r.sorts)
	}
}

// TestColdStageAttribution pins the per-stage attribution: a violation
// counts against the launch stage on its path, a wait with no launch on
// the path counts as warm queueing, and ColdStartViolations is the
// stage sum.
func TestColdStageAttribution(t *testing.T) {
	slo := 10 * sim.Millisecond
	viol := 50 * sim.Millisecond

	r := NewLatencyRecorder("staged", slo)
	r.ObserveWaitStage(viol, 5*sim.Millisecond, ColdImageInit)
	r.ObserveWaitStage(viol, 5*sim.Millisecond, ColdModelLoad)
	r.ObserveWaitStage(viol, 5*sim.Millisecond, ColdModelLoad)
	r.ObserveWaitStage(viol, 5*sim.Millisecond, ColdKernelJIT)
	r.ObserveWaitStage(viol, 5*sim.Millisecond, ColdNone)                 // warm queue
	r.ObserveWaitStage(viol, 0, ColdNone)                                 // pure exec violation
	r.ObserveWaitStage(sim.Millisecond, 5*sim.Millisecond, ColdModelLoad) // met SLO
	if got := r.ColdStartViolations(); got != 4 {
		t.Fatalf("ColdStartViolations = %d, want 4 (stage sum)", got)
	}
	if r.StageViolations(ColdImageInit) != 1 || r.StageViolations(ColdModelLoad) != 2 ||
		r.StageViolations(ColdKernelJIT) != 1 {
		t.Fatalf("stage violations = %d/%d/%d, want 1/2/1",
			r.StageViolations(ColdImageInit), r.StageViolations(ColdModelLoad),
			r.StageViolations(ColdKernelJIT))
	}
	if got := r.WarmQueueViolations(); got != 1 {
		t.Fatalf("WarmQueueViolations = %d, want 1", got)
	}
	if got := r.Violations(); got != 6 {
		t.Fatalf("Violations = %d, want 6", got)
	}
	r.Reset()
	if r.ColdStartViolations() != 0 || r.WarmQueueViolations() != 0 {
		t.Fatal("Reset left attribution counters non-zero")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	for i := 1; i <= 100; i++ {
		r.Observe(sim.Duration(i) * sim.Millisecond)
	}
	if got := r.P50(); math.Abs(got.Millis()-50.5) > 1 {
		t.Fatalf("p50 = %v", got.Millis())
	}
	if got := r.P95(); math.Abs(got.Millis()-95.05) > 1 {
		t.Fatalf("p95 = %v", got.Millis())
	}
	if got := r.Max(); got != 100*sim.Millisecond {
		t.Fatalf("max = %v", got)
	}
}

func TestLatencySVR(t *testing.T) {
	r := NewLatencyRecorder("f", 100*sim.Millisecond)
	for i := 0; i < 90; i++ {
		r.Observe(50 * sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		r.Observe(150 * sim.Millisecond)
	}
	if got := r.ViolationRate(); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("SVR = %v, want 0.10", got)
	}
	if r.Violations() != 10 {
		t.Fatalf("violations = %d", r.Violations())
	}
}

func TestLatencyEmpty(t *testing.T) {
	r := NewLatencyRecorder("f", 0)
	if r.P50() != 0 || r.P95() != 0 || r.Mean() != 0 || r.Max() != 0 || r.ViolationRate() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestLatencyZeroSLODisablesViolations(t *testing.T) {
	r := NewLatencyRecorder("f", 0)
	r.Observe(sim.Hour)
	if r.Violations() != 0 {
		t.Fatal("zero SLO must not count violations")
	}
}

func TestLatencyReset(t *testing.T) {
	r := NewLatencyRecorder("f", sim.Millisecond)
	r.Observe(2 * sim.Millisecond)
	r.Reset()
	if r.Count() != 0 || r.Violations() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLatencyMeanInterleavedWithPercentile(t *testing.T) {
	r := NewLatencyRecorder("f", 0)
	r.Observe(10 * sim.Millisecond)
	_ = r.P50() // sort
	r.Observe(20 * sim.Millisecond)
	if got := r.Mean(); got != 15*sim.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := r.Max(); got != 20*sim.Millisecond {
		t.Fatalf("max after resort = %v", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max of samples.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder("f", 0)
		for _, v := range raw {
			r.Observe(sim.Duration(v) * sim.Microsecond)
		}
		sorted := append([]uint16(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := sim.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := r.Percentile(p)
			if v < prev {
				return false
			}
			if v < sim.Duration(sorted[0])*sim.Microsecond || v > sim.Duration(sorted[len(sorted)-1])*sim.Microsecond {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("util")
	s.Add(0, 1)
	s.Add(sim.Second, 3)
	s.Add(2*sim.Second, 5)
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 5 || s.Min() != 1 {
		t.Fatalf("max/min = %v/%v", s.Max(), s.Min())
	}
}

func TestSeriesIntegral(t *testing.T) {
	s := NewSeries("gpus")
	s.Add(0, 4)
	s.Add(10*sim.Second, 2)
	s.Add(20*sim.Second, 2)
	// 4 gpus for 10s + 2 gpus for 10s = 60 gpu-seconds
	if got := s.Integral(); math.Abs(got-60) > 1e-9 {
		t.Fatalf("integral = %v, want 60", got)
	}
}

func TestSeriesIntegralDegenerate(t *testing.T) {
	s := NewSeries("x")
	if s.Integral() != 0 {
		t.Fatal("empty integral")
	}
	s.Add(0, 5)
	if s.Integral() != 0 {
		t.Fatal("single-point integral")
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Add(sim.Time(i)*sim.Millisecond, float64(i))
	}
	d := s.Downsample(10 * sim.Millisecond)
	if d.Len() != 10 {
		t.Fatalf("downsampled len = %d, want 10", d.Len())
	}
	if math.Abs(d.Points[0].Value-4.5) > 1e-9 {
		t.Fatalf("bucket 0 mean = %v, want 4.5", d.Points[0].Value)
	}
}

func TestSeriesDownsampleWithGaps(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 1)
	s.Add(35*sim.Millisecond, 2)
	d := s.Downsample(10 * sim.Millisecond)
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2 (gap buckets skipped)", d.Len())
	}
}

func TestCounter(t *testing.T) {
	c := Counter{Name: "cold"}
	c.Inc()
	c.Add(4)
	if c.Value != 5 {
		t.Fatalf("counter = %d", c.Value)
	}
}

// Property: downsampling preserves the overall mean within floating error
// when buckets are uniformly filled.
func TestDownsampleMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) < 4 {
			return true
		}
		s := NewSeries("x")
		for i, v := range vals {
			s.Add(sim.Time(i)*sim.Millisecond, float64(v))
		}
		// width=1ms means identity downsample
		d := s.Downsample(sim.Millisecond)
		return d.Len() == s.Len() && math.Abs(d.Mean()-s.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
