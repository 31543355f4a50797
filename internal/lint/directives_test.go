package lint

import (
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// parseSrc extracts directives from a one-file package built around the
// given comment lines.
func parseSrc(t *testing.T, comments ...string) []directive {
	t.Helper()
	src := "package p\n\n" + strings.Join(comments, "\n") + "\n"
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return parseDirectives(f)
}

func TestDirectiveGrammar(t *testing.T) {
	cases := []struct {
		comment   string
		analyzer  string // valid directives: suppressed analyzer
		reason    string
		malformed string // substring of the grammar error, "" if valid
	}{
		{"//qnetlint:allow detrand replays a recorded trace", "detrand", "replays a recorded trace", ""},
		{"//qnetlint:sorted keys feed a commutative integer count", "maporder", "keys feed a commutative integer count", ""},
		{"//qnetlint:allow detrand", "detrand", "", "no reason"},
		{"//qnetlint:allow", "", "", "names no analyzer"},
		{"//qnetlint:allow detrnd misspelled check name", "", "", "names unknown check detrnd"},
		{"//qnetlint:allow testonly kept for another package's test", "testonly", "kept for another package's test", ""},
		{"//qnetlint:sorted", "maporder", "", "no reason"},
		{"//qnetlint:frobnicate stuff", "", "", "unknown qnetlint directive verb"},
		{"//qnetlint:", "", "", "missing verb"},
	}
	for _, c := range cases {
		ds := parseSrc(t, c.comment)
		if len(ds) != 1 {
			t.Errorf("%q parsed to %d directives, want 1", c.comment, len(ds))
			continue
		}
		d := ds[0]
		if c.malformed == "" {
			if d.malformed != "" {
				t.Errorf("%q unexpectedly malformed: %s", c.comment, d.malformed)
			}
			if d.analyzer != c.analyzer || d.reason != c.reason {
				t.Errorf("%q = (%q, %q), want (%q, %q)", c.comment, d.analyzer, d.reason, c.analyzer, c.reason)
			}
			continue
		}
		if d.malformed == "" {
			t.Errorf("%q parsed clean; want grammar error containing %q (reason=%q)", c.comment, c.malformed, d.reason)
		} else if !strings.Contains(d.malformed, c.malformed) {
			t.Errorf("%q error = %q, want it to contain %q", c.comment, d.malformed, c.malformed)
		}
	}
}

// A plain comment that merely mentions qnetlint is not a directive, and a
// spaced "// qnetlint:allow" reads as prose, not grammar.
func TestDirectiveRequiresExactPrefix(t *testing.T) {
	if ds := parseSrc(t, "// qnetlint:allow detrand spaced out", "// the qnetlint suite"); len(ds) != 0 {
		t.Errorf("non-directive comments parsed to %d directives, want 0", len(ds))
	}
}

// An allow directive may name exactly the suite's checks: the five
// analyzers, in suite order, and testonly.
func TestAllowNamesAreTheChecks(t *testing.T) {
	var want []string
	for _, a := range analyzers() {
		want = append(want, a.Name)
	}
	want = append(want, testOnlyName)
	if !slices.Equal(allowNames, want) {
		t.Errorf("allowNames = %q, want %q", allowNames, want)
	}
}
