package workload

import (
	"strings"
	"testing"

	"dilu/internal/sim"
)

// Table-driven edge cases for the three CSV schedule parsers, pinned on
// the row-numbered error contract: a malformed row must name its line,
// never be silently skipped. Silent skips turn a fat-fingered incident
// replay into a subtly different experiment.
func TestParserEdgeCasesRowNumberedErrors(t *testing.T) {
	cases := []struct {
		name    string
		parse   func(in string) error
		in      string
		wantErr string // substring of the error, including "line N"/":N:"
	}{
		// --- fault schedule ---
		{"fault negative seconds", parseFault,
			"10,error,0,0\n-5,error,1,0\n", "fault line 2: negative timestamp"},
		{"fault bad factor", parseFault,
			"10,slow,0,0,fast\n", "fault line 1: bad factor \"fast\""},
		{"fault sub-1 factor", parseFault,
			"# hdr\n10,slow,0,0,0.5\n", "fault line 2: slow needs factor ≥ 1"},
		{"fault unknown action", parseFault,
			"10,error,0,0\n20,melt,0,0\n", "fault line 2: unknown action \"melt\""},
		{"fault bad gpu", parseFault,
			"10,error,0,x\n", "fault line 1: bad gpu \"x\""},
		// --- churn schedule ---
		{"churn negative seconds", parseChurn,
			"10,fail,0\n-1,join,0\n", "churn line 2: negative timestamp"},
		{"churn unknown action", parseChurn,
			"10,reboot,0\n", "churn line 1: unknown action \"reboot\""},
		// A '*' GPU column belongs to the fault format; on a churn node
		// row it makes a fourth field and must error by row, not drop.
		{"churn star gpu column", parseChurn,
			"10,fail,0\n20,fail,1,*\n", "churn line 2: want seconds,action,node"},
		{"churn bad node", parseChurn,
			"10,fail,*\n", "churn line 1: bad node \"*\""},
		// --- request trace ---
		{"trace negative seconds", parseTrace,
			"0.5,alpha\n-2,beta\n", "tr:2: negative timestamp \"-2\""},
		{"trace malformed row", parseTrace,
			"0.5,alpha\n0..7,beta\n", "tr:2: bad timestamp \"0..7\""},
		{"trace missing function", parseTrace,
			"0.5,alpha\n1.5\n", "tr:2: want \"seconds,function\""},
		// --- timestamps sim.Time cannot hold ---
		// NaN and ±Inf parse as floats, and 1e300 s overflows the int64
		// microsecond clock: converted, all three wrap to a negative time
		// (-9223372036854.775s), so they must be rejected by row.
		{"churn NaN seconds", parseChurn,
			"NaN,fail,0\n", "churn line 1: non-finite timestamp \"NaN\""},
		{"churn Inf seconds", parseChurn,
			"10,fail,1\nInf,join,1\n", "churn line 2: non-finite timestamp \"+Inf\""},
		{"churn huge seconds", parseChurn,
			"1e300,drain,0\n", "churn line 1: out-of-range timestamp \"1e+300\""},
		{"fault Inf seconds", parseFault,
			"Inf,error,0,*\n", "fault line 1: non-finite timestamp \"+Inf\""},
		{"fault huge seconds", parseFault,
			"# hdr\n9.3e12,error,0,0\n", "fault line 2: out-of-range timestamp \"9.3e+12\""},
		{"fault NaN factor", parseFault,
			"1,slow,0,0,NaN\n", "fault line 1: bad factor \"NaN\""},
		{"fault Inf factor", parseFault,
			"1,slow,0,0,Inf\n", "fault line 1: bad factor \"Inf\""},
		{"trace NaN seconds", parseTrace,
			"0.5,alpha\nNaN,beta\n", "tr:2: non-finite timestamp \"NaN\""},
		{"trace -Inf seconds", parseTrace,
			"-Inf,alpha\n", "tr:1: non-finite timestamp \"-Inf\""},
		{"trace huge seconds", parseTrace,
			"seconds,function\n1e300,alpha\n", "tr:2: out-of-range timestamp \"1e+300\""},
		{"trace JSON huge t", parseTraceJSON,
			`{"events": [{"t": 0.5, "func": "a"}, {"t": 1e300, "func": "b"}]}`,
			"tr: event 1: out-of-range timestamp \"1e+300\""},
		{"trace JSON negative t", parseTraceJSON,
			`{"events": [{"t": -0.5, "func": "a"}]}`, "tr: event 0: negative timestamp \"-0.5\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.parse(tc.in)
			if err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the row: want substring %q", err, tc.wantErr)
			}
		})
	}
}

func parseFault(in string) error {
	_, err := ParseFaultCSV(strings.NewReader(in))
	return err
}

func parseChurn(in string) error {
	_, err := ParseChurnCSV(strings.NewReader(in))
	return err
}

func parseTrace(in string) error {
	_, err := ParseTraceCSV("tr", strings.NewReader(in))
	return err
}

func parseTraceJSON(in string) error {
	_, err := ParseTraceJSON("tr", strings.NewReader(in))
	return err
}

// The largest timestamp sim.Time can hold still parses: the range check
// rejects only what would wrap.
func TestParsersAcceptTimeRangeEdge(t *testing.T) {
	evs, err := ParseChurnCSV(strings.NewReader("9223372036854,fail,0\n"))
	if err != nil || len(evs) != 1 || evs[0].At <= 0 {
		t.Fatalf("churn parse of the range edge: %v (%+v)", err, evs)
	}
}

// Non-monotone seconds are not an error in any of the three formats:
// schedules are sorted on load (incident dumps come unordered), and
// the sorted order is what replays.
func TestParsersAcceptNonMonotoneSeconds(t *testing.T) {
	evs, err := ParseFaultCSV(strings.NewReader("30,error,1,0\n10,error,0,*\n"))
	if err != nil || len(evs) != 2 {
		t.Fatalf("fault parse: %v (%d events)", err, len(evs))
	}
	if evs[0].At != 10*sim.Second || evs[0].GPU != -1 || evs[1].At != 30*sim.Second {
		t.Fatalf("fault events not sorted on load: %+v", evs)
	}
	cevs, err := ParseChurnCSV(strings.NewReader("40,join,2\n5,fail,2\n"))
	if err != nil || len(cevs) != 2 {
		t.Fatalf("churn parse: %v (%d events)", err, len(cevs))
	}
	if cevs[0].At != 5*sim.Second || cevs[1].At != 40*sim.Second {
		t.Fatalf("churn events not sorted on load: %+v", cevs)
	}
	tr, err := ParseTraceCSV("tr", strings.NewReader("2.5,beta\n0.5,alpha\n"))
	if err != nil || tr.Count() != 2 {
		t.Fatalf("trace parse: %v", err)
	}
	if tr.Events[0].Func != "alpha" || tr.Events[1].Func != "beta" {
		t.Fatalf("trace events not sorted on load: %+v", tr.Events)
	}
}
