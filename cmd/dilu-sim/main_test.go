package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunAutoscaleReport runs a short autoscaled scenario with and
// without a collocated training job and checks the report: the system
// line, an inference line with requests served, the training line only
// when a job was deployed, and the SM-busy roll-up.
func TestRunAutoscaleReport(t *testing.T) {
	served := regexp.MustCompile(`inference       RoBERTa-large: served=([1-9]\d*) `)
	for _, train := range []string{"", "BERT-base"} {
		t.Run("train="+train, func(t *testing.T) {
			args := []string{"-autoscale", "-dur", "5"}
			if train != "" {
				args = append(args, "-train", train)
			}
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			report := out.String()
			if !strings.HasPrefix(report, "system          Dilu\nsimulated       5s on 2 GPUs") {
				t.Fatalf("report header wrong:\n%s", report)
			}
			if !served.MatchString(report) {
				t.Fatalf("no requests served:\n%s", report)
			}
			if got := strings.Contains(report, "training        BERT-base: "); got != (train != "") {
				t.Fatalf("training line present=%v with -train %q:\n%s", got, train, report)
			}
			if !strings.Contains(report, "mean SM busy    ") {
				t.Fatalf("no SM-busy line:\n%s", report)
			}
		})
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-system", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 || errOut.Len() == 0 {
		t.Fatalf("stdout %q, stderr %q", out.String(), errOut.String())
	}
}
