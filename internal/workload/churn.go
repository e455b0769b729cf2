package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"dilu/internal/sim"
)

// ChurnKind is one cluster lifecycle transition.
type ChurnKind uint8

const (
	// ChurnFail retires a node abruptly; its placements are evicted and
	// rescheduled with cold starts.
	ChurnFail ChurnKind = iota
	// ChurnDrain stops new placements on a node (planned removal);
	// instances are migrated off make-before-break.
	ChurnDrain
	// ChurnJoin returns a failed or drained node to service.
	ChurnJoin
)

// String returns the trace-file spelling of the kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnFail:
		return "fail"
	case ChurnDrain:
		return "drain"
	case ChurnJoin:
		return "join"
	}
	return fmt.Sprintf("churn(%d)", k)
}

// ChurnEvent is one scheduled lifecycle transition of a cluster node.
type ChurnEvent struct {
	At   sim.Time
	Kind ChurnKind
	Node int
}

// SortChurn orders events by (At, original position) — the stable order
// a replay through sim.Engine.ScheduleSeries requires.
func SortChurn(events []ChurnEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}

// FailureWave generates a seeded failure storm: count distinct nodes
// (drawn from [0, nodes)) fail one after another, interval apart,
// starting at start; each rejoins repair after its failure. The produced
// schedule is sorted and deterministic in the RNG seed.
func FailureWave(rng *sim.RNG, nodes int, start sim.Time, interval, repair sim.Duration, count int) []ChurnEvent {
	if count > nodes {
		count = nodes
	}
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates off the deterministic RNG: which nodes fail is part
	// of the seeded scenario.
	for i := nodes - 1; i > 0; i-- {
		j := int(rng.Float64() * float64(i+1))
		if j > i {
			j = i
		}
		perm[i], perm[j] = perm[j], perm[i]
	}
	var out []ChurnEvent
	for i := 0; i < count; i++ {
		at := start + sim.Duration(i)*interval
		out = append(out, ChurnEvent{At: at, Kind: ChurnFail, Node: perm[i]})
		out = append(out, ChurnEvent{At: at + repair, Kind: ChurnJoin, Node: perm[i]})
	}
	SortChurn(out)
	return out
}

// RollingDrain generates the zero-downtime upgrade sweep: each node in
// [first, first+count) drains at its turn, dwells for the upgrade
// window, and rejoins before the next node starts — at most one node is
// ever out of service.
func RollingDrain(first, count int, start sim.Time, dwell sim.Duration) []ChurnEvent {
	var out []ChurnEvent
	at := start
	for n := first; n < first+count; n++ {
		out = append(out, ChurnEvent{At: at, Kind: ChurnDrain, Node: n})
		out = append(out, ChurnEvent{At: at + dwell, Kind: ChurnJoin, Node: n})
		at += dwell + dwell/4
	}
	return out
}

// ParseChurnCSV reads a churn trace: one "seconds,action,node" line per
// event (action ∈ fail|drain|join), '#' comments and a header line
// allowed. Events are returned sorted by time.
func ParseChurnCSV(r io.Reader) ([]ChurnEvent, error) {
	sc := bufio.NewScanner(r)
	var out []ChurnEvent
	line, dataRows := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: churn line %d: want seconds,action,node, got %q", line, text)
		}
		dataRows++
		at, header, err := parseSeconds(parts[0], dataRows == 1)
		if err != nil {
			return nil, fmt.Errorf("workload: churn line %d: %v", line, err)
		}
		if header {
			continue
		}
		var kind ChurnKind
		switch action := strings.ToLower(strings.TrimSpace(parts[1])); action {
		case "fail":
			kind = ChurnFail
		case "drain":
			kind = ChurnDrain
		case "join":
			kind = ChurnJoin
		default:
			return nil, fmt.Errorf("workload: churn line %d: unknown action %q", line, action)
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || node < 0 {
			return nil, fmt.Errorf("workload: churn line %d: bad node %q", line, parts[2])
		}
		out = append(out, ChurnEvent{At: at, Kind: kind, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	SortChurn(out)
	return out, nil
}

// LoadChurn reads a churn trace file (CSV).
func LoadChurn(path string) ([]ChurnEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseChurnCSV(f)
}
