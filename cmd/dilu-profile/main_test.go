package main

import (
	"bytes"
	"strings"
	"testing"

	"dilu/internal/model"
)

// TestRunOneModelWithComparison profiles one model with -compare: the
// profile table holds its inference and training rows only, and the
// search comparison follows with one row for it.
func TestRunOneModelWithComparison(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-model", "BERT-base", "-compare"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "Search method comparison (trials)") {
		t.Fatalf("no comparison table:\n%s", text)
	}
	if n := strings.Count(text, "BERT-base "); n != 3 {
		t.Fatalf("%d BERT-base rows, want inference + training + comparison:\n%s", n, text)
	}
	for _, s := range model.All() {
		if s.Name != "BERT-base" && strings.Contains(text, s.Name) {
			t.Fatalf("-model BERT-base also printed %s:\n%s", s.Name, text)
		}
	}
}

// TestRunAllModels checks the default run profiles every catalog model
// in both roles and prints no comparison.
func TestRunAllModels(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	if strings.Contains(text, "Search method comparison") {
		t.Fatal("comparison printed without -compare")
	}
	for _, s := range model.All() {
		if !strings.Contains(text, s.Name+" ") {
			t.Fatalf("no rows for %s:\n%s", s.Name, text)
		}
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-model", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), `unknown model "nope"`) {
		t.Fatalf("stdout %q, stderr %q", out.String(), errOut.String())
	}
}
