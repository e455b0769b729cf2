package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunAllSchedulers places a small mix through every scheduler name
// the command accepts and checks the report: some instances placed (the
// whole-GPU Exclusive runs out of GPUs at this size) and a positive
// per-decision latency (sub-millisecond batches must not print 0).
func TestRunAllSchedulers(t *testing.T) {
	placedLine := regexp.MustCompile(`placed\s+(\d+) / 200 instances in \S+ \(([0-9.]+) ms/decision\)`)
	for _, name := range []string{"Dilu", "Exclusive", "INFless+-l", "INFless+-r", "FaST-GS+"} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run([]string{"-scheduler", name, "-nodes", "50", "-instances", "200"}, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			if !strings.Contains(out.String(), "scheduler        "+name+"\n") {
				t.Fatalf("report names the wrong scheduler:\n%s", out.String())
			}
			m := placedLine.FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("no placement line:\n%s", out.String())
			}
			if placed, _ := strconv.Atoi(m[1]); placed == 0 {
				t.Fatalf("nothing placed:\n%s", out.String())
			}
			if ms, _ := strconv.ParseFloat(m[2], 64); ms <= 0 {
				t.Fatalf("ms/decision printed as zero:\n%s", out.String())
			}
		})
	}
}

func TestRunRejectsUnknownScheduler(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scheduler", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown scheduler "nope"`) {
		t.Fatalf("stderr: %q", errOut.String())
	}
}
