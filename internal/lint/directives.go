package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The //qnetlint: comment grammar.
//
//	//qnetlint:allow <check> <reason>
//	//qnetlint:sorted <reason>
//
// An allow directive suppresses the named check's findings on the
// directive's line and on the line directly below it (so it works both as a
// trailing comment and as a lead comment above the flagged statement). The
// sorted directive is maporder's dedicated justification: it asserts the
// annotated map iteration is order-insensitive by construction. Both forms
// REQUIRE a non-empty reason — a directive without one is itself reported,
// never honoured, so every suppression in the tree carries its
// justification (CI greps for naked directives as a second line of
// defence). An allow must name a check of the suite (allowNames); any
// other name is reported too. A well-formed directive that suppresses no
// finding is reported as stale.

const directivePrefix = "//qnetlint:"

// allowNames are the checks an allow directive may name: every check of
// the suite, in table order. An allow naming anything else would suppress
// nothing while reading as a justified suppression.
var allowNames = func() []string {
	var names []string
	for _, c := range checks {
		names = append(names, c.name)
	}
	return names
}()

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

// applyDirectives turns the passes' diagnostics into findings under the
// directives of files, which it parses once. It reports each malformed
// directive once, tagged with the check it names (qnetlint when it names
// none). It drops a diagnostic when a well-formed allow for its check
// covers the line of its position or of its anchor. It reports each
// well-formed directive of a check that ran but covered nothing as stale:
// left in place, it would silently hide the next real violation on its
// line.
func applyDirectives(fset *token.FileSet, files []*ast.File, passes []*pass) []finding {
	ran := map[string]bool{}
	for _, p := range passes {
		ran[p.check] = true
	}
	type lineKey struct {
		check, file string
		line        int
	}
	type allow struct {
		check string
		pos   token.Position
		used  bool
	}
	var out []finding
	var allows []*allow
	covering := map[lineKey][]*allow{}
	for _, f := range files {
		for _, d := range parseDirectives(f) {
			pos := fset.Position(d.pos)
			switch {
			case d.malformed != "":
				check := d.analyzer
				if check == "" {
					check = "qnetlint"
				}
				out = append(out, finding{pos, "malformed qnetlint directive: " + d.malformed, check})
			case ran[d.analyzer]:
				a := &allow{check: d.analyzer, pos: pos}
				allows = append(allows, a)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := lineKey{a.check, pos.Filename, line}
					covering[k] = append(covering[k], a)
				}
			}
		}
	}
	for _, p := range passes {
		for _, d := range p.diags {
			covered := false
			for _, at := range []token.Pos{d.pos, d.anchor} {
				if !at.IsValid() {
					continue
				}
				pos := fset.Position(at)
				for _, a := range covering[lineKey{p.check, pos.Filename, pos.Line}] {
					a.used, covered = true, true
				}
			}
			if !covered {
				out = append(out, finding{fset.Position(d.pos), d.message, p.check})
			}
		}
	}
	for _, a := range allows {
		if !a.used {
			out = append(out, finding{a.pos, "stale qnetlint directive: no " + a.check + " diagnostic on this line or the next, so it keeps nothing — delete it", a.check})
		}
	}
	return out
}
