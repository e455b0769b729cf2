package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// TestRunRPSColumnIsOfferedLoad drives the collocation at 200 rps with
// evenly spaced arrivals (-cv 0), well past what the inference instance
// serves next to training, and checks the rps column reports the
// offered arrivals, not completions: every second reads 200 give or
// take one arrival at a second boundary, and the column sums to the
// run's 1,000 arrivals.
func TestRunRPSColumnIsOfferedLoad(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-rps", "200", "-cv", "0", "-dur", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0][1] != "rps" {
		t.Fatalf("want a header and 5 rows, got %q", rows)
	}
	total := 0
	for _, row := range rows[1:] {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		if n < 199 || n > 201 {
			t.Fatalf("second %s: rps %d, want 200±1 offered", row[0], n)
		}
		total += n
	}
	if total != 1000 {
		t.Fatalf("rps column sums to %d, want the 1000 offered arrivals", total)
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-system", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "nope") {
		t.Fatalf("stdout %q, stderr %q", out.String(), errOut.String())
	}
}
