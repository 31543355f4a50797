package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -fig value must fail loudly with the valid IDs, not print
// nothing and exit 0.
func TestUnknownFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
	if want := "(valid: " + figureIDs() + ")"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
}

// The -fig help and the valid-ID list come from the one figure table.
func TestFigureIDs(t *testing.T) {
	const want = "tables, 5, 8, 9, 10ab, 10c, 11, topo, hub, diversity, eer, churn, multipath, all, city"
	if got := figureIDs(); got != want {
		t.Errorf("figureIDs() = %q, want %q", got, want)
	}
	var stderr bytes.Buffer
	if code := figuresMain([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Errorf("-h exit status %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("-h output does not list the figure IDs:\n%s", stderr.String())
	}
}

func TestTablesFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "tables"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d; stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") || !strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("stdout missing the tables:\n%s", stdout.String())
	}
}

// A negative -runs is a usage error, not a silent fall-back to the
// default replica count.
func TestNegativeRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := figuresMain([]string{"-fig", "tables", "-runs", "-4"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
	if want := "-runs must be ≥ 0 (got -4)"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
}
