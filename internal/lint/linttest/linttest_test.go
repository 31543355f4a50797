package linttest

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qnp/internal/lint/analysis"
)

// findFoo flags every identifier named foo — a minimal analyzer to drive
// the harness itself.
var findFoo = &analysis.Analyzer{
	Name: "findfoo",
	Doc:  "flags every identifier named foo",
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "foo" {
					pass.Reportf(id.Pos(), "identifier foo at large")
				}
				return true
			})
		}
	},
}

var noop = &analysis.Analyzer{
	Name: "noop",
	Doc:  "reports nothing",
	Run:  func(*analysis.Pass) {},
}

func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMatchesWants(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar foo = 1 // want `foo at large`\nvar bar = 2\n")
	Run(t, findFoo, "example/p", f)
}

func TestCompareFlagsUnexpectedDiagnostic(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar foo = 1\n")
	diags, fset, err := Diagnostics(findFoo, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := Compare(fset, []string{f}, diags)
	if len(problems) != 1 || !strings.Contains(problems[0], "unexpected diagnostic") {
		t.Fatalf("problems = %q, want one unexpected-diagnostic entry", problems)
	}
}

func TestCompareFlagsUnmatchedWant(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar bar = 2 // want `foo at large`\n")
	diags, fset, err := Diagnostics(noop, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := Compare(fset, []string{f}, diags)
	if len(problems) != 1 || !strings.Contains(problems[0], "no diagnostic matched") {
		t.Fatalf("problems = %q, want one unmatched-want entry", problems)
	}
}

func TestCompareRejectsMalformedWants(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar a = 1 // want nothing quoted\nvar b = 2 // want `ba(d`\n")
	diags, fset, err := Diagnostics(noop, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := Compare(fset, []string{f}, diags)
	if len(problems) != 2 {
		t.Fatalf("problems = %q, want a no-regexp entry and a bad-regexp entry", problems)
	}
	if !strings.Contains(problems[0], "no backquoted regexp") || !strings.Contains(problems[1], "bad want regexp") {
		t.Fatalf("problems = %q", problems)
	}
}

func TestDiagnosticsRejectsParseError(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nfunc {\n")
	if _, _, err := Diagnostics(findFoo, "example/p", []string{f}); err == nil {
		t.Fatal("unparsable fixture produced no error")
	}
}

func TestDiagnosticsRejectsTypeError(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar x = undefinedSymbol\n")
	_, _, err := Diagnostics(findFoo, "example/p", []string{f})
	if err == nil || !strings.Contains(err.Error(), "does not typecheck") {
		t.Fatalf("err = %v, want a typecheck failure", err)
	}
}
