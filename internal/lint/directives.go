package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"qnp/internal/lint/analysis"
)

// The //qnetlint: comment grammar.
//
//	//qnetlint:allow <analyzer> <reason>
//	//qnetlint:sorted <reason>
//
// An allow directive suppresses the named analyzer's diagnostics on the
// directive's line and on the line directly below it (so it works both as a
// trailing comment and as a lead comment above the flagged statement). The
// sorted directive is maporder's dedicated justification: it asserts the
// annotated map iteration is order-insensitive by construction. Both forms
// REQUIRE a non-empty reason — a directive without one is itself reported,
// never honoured, so every suppression in the tree carries its
// justification (CI greps for naked directives as a second line of
// defence). An allow must name a check of the suite (allowNames); any
// other name is reported too. A well-formed directive that suppresses no
// diagnostic is reported as stale.

const directivePrefix = "//qnetlint:"

// grammarReporter is the analyzer that reports directives too malformed to
// name the analyzer they meant to address (unknown or missing verb, no or
// an unknown analyzer). Any one will do as long as it is exactly one;
// detrand is first in the suite.
const grammarReporter = "detrand"

// allowNames are the checks an allow directive may name: the five
// analyzers and testonly. An allow naming anything else would suppress
// nothing while reading as a justified suppression.
var allowNames = []string{"detrand", "maporder", "wsownership", "hotalloc", "streamoffset", testOnlyName}

// directive is one parsed //qnetlint: comment.
type directive struct {
	pos  token.Pos
	verb string // "allow", "sorted", ...
	// analyzer is the suppressed analyzer's name (allow) or "maporder"
	// (sorted, implicitly).
	analyzer string
	reason   string
	// malformed holds the grammar error, if any; a malformed directive
	// suppresses nothing.
	malformed string
}

// parseDirectives extracts every //qnetlint: directive from a file.
func parseDirectives(f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			d := directive{pos: c.Pos()}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				d.malformed = "missing verb (want //qnetlint:allow <analyzer> <reason> or //qnetlint:sorted <reason>)"
				out = append(out, d)
				continue
			}
			// The verb is glued to the prefix (//qnetlint:allow ...); a
			// space there would read as a plain comment, so fields[0] is
			// the verb only when the comment had no space — reconstruct
			// from the raw text instead.
			d.verb = fields[0]
			switch d.verb {
			case "allow":
				if len(fields) < 2 {
					d.malformed = "allow directive names no analyzer (want //qnetlint:allow <analyzer> <reason>)"
					break
				}
				if !slices.Contains(allowNames, fields[1]) {
					d.malformed = "allow directive names unknown check " + fields[1] + " (want one of " + strings.Join(allowNames, ", ") + ")"
					break
				}
				d.analyzer = fields[1]
				d.reason = strings.TrimSpace(strings.Join(fields[2:], " "))
				if d.reason == "" {
					d.malformed = "allow directive has no reason — justify the suppression (//qnetlint:allow " + d.analyzer + " <reason>)"
				}
			case "sorted":
				d.analyzer = "maporder"
				d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				if d.reason == "" {
					d.malformed = "sorted directive has no reason — say why this map iteration is order-insensitive (//qnetlint:sorted <reason>)"
				}
			default:
				d.malformed = "unknown qnetlint directive verb " + d.verb + " (want allow or sorted)"
			}
			out = append(out, d)
		}
	}
	return out
}

// withDirectives wraps an analyzer's check with the //qnetlint:
// directives of the package it runs on. The check reports through the
// suppressor, which drops what an allow covers; afterwards every
// well-formed directive for the analyzer that covered no diagnostic is
// reported as stale — left in place, it would silently hide the next real
// violation on its line.
func withDirectives(check func(*analysis.Pass, *suppressor)) func(*analysis.Pass) {
	return func(pass *analysis.Pass) {
		sup := newSuppressor(pass)
		check(pass, sup)
		for _, a := range sup.order {
			if !a.used {
				pass.Reportf(a.pos, "stale qnetlint directive: no %s diagnostic on this line or the next — delete it", pass.Analyzer.Name)
			}
		}
	}
}

// suppressor answers "is this analyzer suppressed at this position?" for one
// package, and reports malformed directives exactly once per pass.
type suppressor struct {
	pass *analysis.Pass
	// allowed maps a file line to the directives for the pass's analyzer
	// that cover it; order holds each of them once, in source order.
	allowed map[suppressKey][]*allow
	order   []*allow
}

type suppressKey struct {
	file string
	line int
}

// allow is one well-formed directive and whether it suppressed anything.
type allow struct {
	pos  token.Pos
	used bool
}

// newSuppressor parses every file's directives, reports the malformed ones
// through pass, and indexes the valid ones.
func newSuppressor(pass *analysis.Pass) *suppressor {
	s := &suppressor{pass: pass, allowed: make(map[suppressKey][]*allow)}
	for _, f := range pass.Files {
		for _, d := range parseDirectives(f) {
			if d.malformed != "" {
				// Every analyzer builds a suppressor, but the grammar
				// error belongs to the directive, not the check; report
				// it from the analyzer the directive tried to address —
				// or, for directives too broken to name one, from a
				// single designated pass — so it surfaces exactly once
				// per package.
				if d.analyzer == pass.Analyzer.Name ||
					(d.analyzer == "" && pass.Analyzer.Name == grammarReporter) {
					pass.Reportf(d.pos, "malformed qnetlint directive: %s", d.malformed)
				}
				continue
			}
			if d.analyzer != pass.Analyzer.Name {
				continue
			}
			a := &allow{pos: d.pos}
			s.order = append(s.order, a)
			// Honour the directive on its own line (trailing comment)
			// and on the next line (lead comment above the statement).
			pos := pass.Fset.Position(d.pos)
			for _, line := range []int{pos.Line, pos.Line + 1} {
				k := suppressKey{pos.Filename, line}
				s.allowed[k] = append(s.allowed[k], a)
			}
		}
	}
	return s
}

// suppressed reports whether an allow directive covers a diagnostic at
// pos, and marks the covering directives used. Call it only where a
// diagnostic would otherwise be reported.
func (s *suppressor) suppressed(pos token.Pos) bool {
	p := s.pass.Fset.Position(pos)
	as := s.allowed[suppressKey{p.Filename, p.Line}]
	for _, a := range as {
		a.used = true
	}
	return len(as) > 0
}

// report emits a diagnostic unless an allow directive covers its line.
func (s *suppressor) report(pos token.Pos, format string, args ...interface{}) {
	if s.suppressed(pos) {
		return
	}
	s.pass.Reportf(pos, format, args...)
}
