package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"dilu/internal/sim"
)

// Gray-failure schedules: unlike churn (churn.go), which kills or
// drains whole nodes, fault events degrade capacity that stays in
// service — per-GPU slowdowns (stragglers stretching every execution
// tick) and transient batch errors (an in-flight batch aborts and its
// requests need redelivery). Both are the "gray zone" DeepServe and
// FlexPipe treat as a first-class serving-plane concern: the cluster
// still reports the GPU healthy, only the serving plane's observed
// signals reveal it. Schedules come from seeded generators
// (StragglerMix, FaultWave) or external CSVs (ParseFaultCSV) and replay
// through core.System.ScheduleFaults on one ScheduleSeries cursor.

// FaultKind is one gray-failure event type.
type FaultKind uint8

const (
	// FaultSlow sets a GPU's slowdown factor: Factor > 1 stretches its
	// execution (a 4× straggler does a tick's work in four), Factor == 1
	// restores full speed.
	FaultSlow FaultKind = iota
	// FaultError aborts the in-flight batches on a GPU: their requests
	// are redelivered to the gateway (transient XID-style error, the
	// device itself survives).
	FaultError
)

// String returns the trace-file spelling of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultSlow:
		return "slow"
	case FaultError:
		return "error"
	}
	return fmt.Sprintf("fault(%d)", k)
}

// FaultEvent is one scheduled gray-failure event. GPU indexes into the
// node's devices; -1 targets every GPU on the node (a flaky host: NIC,
// PCIe switch, thermal). Factor applies to FaultSlow only.
type FaultEvent struct {
	At     sim.Time
	Kind   FaultKind
	Node   int
	GPU    int
	Factor float64
}

// SortFaults orders events by (At, original position) — the stable
// order a replay through sim.Engine.ScheduleSeries requires.
func SortFaults(events []FaultEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}

// StragglerMix generates a seeded straggler population: count distinct
// GPUs (drawn over nodes × gpusPerNode) slow down by factor at start —
// staggered one stagger apart so detection sees them appear one by one —
// and recover after dur each. The produced schedule is sorted and
// deterministic in the RNG seed.
func StragglerMix(rng *sim.RNG, nodes, gpusPerNode int, start sim.Time, stagger, dur sim.Duration, count int, factor float64) []FaultEvent {
	total := nodes * gpusPerNode
	if count > total {
		count = total
	}
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates off the deterministic RNG: which GPUs straggle is
	// part of the seeded scenario, like FailureWave's node draw.
	for i := total - 1; i > 0; i-- {
		j := int(rng.Float64() * float64(i+1))
		if j > i {
			j = i
		}
		perm[i], perm[j] = perm[j], perm[i]
	}
	var out []FaultEvent
	for i := 0; i < count; i++ {
		node, gpu := perm[i]/gpusPerNode, perm[i]%gpusPerNode
		at := start + sim.Duration(i)*stagger
		out = append(out, FaultEvent{At: at, Kind: FaultSlow, Node: node, GPU: gpu, Factor: factor})
		out = append(out, FaultEvent{At: at + dur, Kind: FaultSlow, Node: node, GPU: gpu, Factor: 1})
	}
	SortFaults(out)
	return out
}

// FaultWave generates a flaky node with a time-varying error rate: over
// [start, start+dur) the node emits transient batch errors whose
// inter-arrival times follow a triangular intensity profile — sparse at
// the edges, peaking at peakPerSec mid-window — rotating across the
// node's GPUs. This is the gray pattern that evades fail-stop
// detection: the node never dies, it just hurts more and more, then
// recovers. Deterministic in the RNG seed.
func FaultWave(rng *sim.RNG, node, gpusPerNode int, start sim.Time, dur sim.Duration, peakPerSec float64) []FaultEvent {
	if dur <= 0 || peakPerSec <= 0 {
		return nil
	}
	var out []FaultEvent
	t := start
	end := start + dur
	gpu := 0
	for t < end {
		// Triangular intensity: ramps 0→peak over the first half of the
		// window and back down over the second.
		frac := float64(t-start) / float64(dur)
		shape := 2 * frac
		if frac > 0.5 {
			shape = 2 * (1 - frac)
		}
		rate := peakPerSec * shape
		if rate < 0.1*peakPerSec {
			rate = 0.1 * peakPerSec
		}
		// Exponential gap at the current rate, jittered off the seed.
		gap := sim.Duration(float64(sim.Second) / rate * (0.5 + rng.Float64()))
		if gap < sim.TickPeriod {
			gap = sim.TickPeriod
		}
		t += gap
		if t >= end {
			break
		}
		out = append(out, FaultEvent{At: t, Kind: FaultError, Node: node, GPU: gpu, Factor: 0})
		if gpusPerNode > 0 {
			gpu = (gpu + 1) % gpusPerNode
		}
	}
	SortFaults(out)
	return out
}

// ParseFaultCSV reads a fault trace: one "seconds,action,node,gpu[,factor]"
// line per event (action ∈ slow|error; gpu may be '*' for every GPU on
// the node; factor is required for slow, 1 restores full speed), '#'
// comments and a header line allowed. Events are returned sorted by
// time.
func ParseFaultCSV(r io.Reader) ([]FaultEvent, error) {
	sc := bufio.NewScanner(r)
	var out []FaultEvent
	line, dataRows := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 && len(parts) != 5 {
			return nil, fmt.Errorf("workload: fault line %d: want seconds,action,node,gpu[,factor], got %q", line, text)
		}
		dataRows++
		at, header, err := parseSeconds(parts[0], dataRows == 1)
		if err != nil {
			return nil, fmt.Errorf("workload: fault line %d: %v", line, err)
		}
		if header {
			continue
		}
		var kind FaultKind
		switch action := strings.ToLower(strings.TrimSpace(parts[1])); action {
		case "slow":
			kind = FaultSlow
		case "error":
			kind = FaultError
		default:
			return nil, fmt.Errorf("workload: fault line %d: unknown action %q", line, action)
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || node < 0 {
			return nil, fmt.Errorf("workload: fault line %d: bad node %q", line, parts[2])
		}
		gpu := -1
		if gs := strings.TrimSpace(parts[3]); gs != "*" {
			gpu, err = strconv.Atoi(gs)
			if err != nil || gpu < 0 {
				return nil, fmt.Errorf("workload: fault line %d: bad gpu %q (index or '*')", line, parts[3])
			}
		}
		factor := 0.0
		if len(parts) == 5 {
			factor, err = strconv.ParseFloat(strings.TrimSpace(parts[4]), 64)
			if err != nil || factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
				return nil, fmt.Errorf("workload: fault line %d: bad factor %q", line, parts[4])
			}
		}
		if kind == FaultSlow {
			if factor < 1 {
				return nil, fmt.Errorf("workload: fault line %d: slow needs factor ≥ 1 (1 restores)", line)
			}
		}
		out = append(out, FaultEvent{At: at, Kind: kind, Node: node, GPU: gpu, Factor: factor})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	SortFaults(out)
	return out, nil
}

// LoadFaults reads a fault trace file (CSV).
func LoadFaults(path string) ([]FaultEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseFaultCSV(f)
}
