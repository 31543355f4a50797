package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// tree is the module, loaded once per test binary: TestQnetlintTree lints
// it, and the fixtures' imports resolve from it, so no qnp/... package is
// typechecked twice.
var tree struct {
	once sync.Once
	l    *loader
	err  error
}

func moduleTree(t *testing.T) *loader {
	t.Helper()
	tree.once.Do(func() { tree.l, tree.err = load("../..") })
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.l
}

// The fixture harness. A fixture is a Go file under testdata/ annotated
// with trailing
//
//	// want `regexp`
//
// comments on each line where a check must report (several backquoted
// regexps may follow one want, one per expected finding). runFixture
// typechecks the fixture as one unit of the tree l, so fixtures import
// real qnp/... packages and the standard library, runs checks over it
// through the driver, directives and all, and fails the test on any
// mismatch in either direction: a finding no want matched, or a want no
// finding matched. The second direction is the suite's own safety net: a
// disabled or broken check turns every fixture want into a failure.

// runFixture runs c over files as a package claiming import path pkgPath
// and compares the findings against the files' want comments. The claimed
// path is what the check sees as the package's path: claim a simulation
// or hot-path package to put the fixture inside a path-gated check's
// scope, anything else to stay outside it.
func runFixture(t *testing.T, l *loader, c check, pkgPath string, files ...string) {
	t.Helper()
	findings, err := fixtureFindings(l, []check{c}, pkgPath, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compare(files, findings) {
		t.Error(p)
	}
}

// fixtureFindings parses files into l's file set, typechecks them as
// pkgPath with their imports resolved by l, and returns what the driver
// reports when it runs cs over them.
func fixtureFindings(l *loader, cs []check, pkgPath string, files []string) ([]finding, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	pkg, info, err := l.typecheck(pkgPath, parsed)
	if err != nil {
		return nil, err
	}
	return l.run(cs, []unit{{parsed, pkg, info}})
}

// lintTree loads the tree under root and runs cs over all of it.
func lintTree(t *testing.T, root string, cs ...check) []finding {
	t.Helper()
	l, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.units()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := l.run(cs, units)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

var (
	wantRE = regexp.MustCompile(`// want (.+)$`)
	patRE  = regexp.MustCompile("`([^`]+)`")
)

// compare matches findings against the files' want comments and returns
// one problem string per mismatch; an empty slice means the fixture
// passed. Each want consumes exactly one finding on its own line.
func compare(files []string, findings []finding) []string {
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	var problems []string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats := patRE.FindAllStringSubmatch(m[1], -1)
			if len(pats) == 0 {
				problems = append(problems, fmt.Sprintf("%s:%d: want comment carries no backquoted regexp", name, i+1))
				continue
			}
			for _, pat := range pats {
				re, err := regexp.Compile(pat[1])
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: bad want regexp: %v", name, i+1, err))
					continue
				}
				wants = append(wants, &want{file: name, line: i + 1, re: re})
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.pos.Filename && w.line == f.pos.Line && w.re.MatchString(f.message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", f.pos.Filename, f.pos.Line, f.message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re))
		}
	}
	return problems
}

// findFoo flags every identifier named foo — a minimal check to drive the
// harness itself.
var findFoo = check{
	name: "findfoo",
	doc:  "flags every identifier named foo",
	run: eachUnit(func(pass *pass) {
		for _, f := range pass.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "foo" {
					pass.reportf(id.Pos(), "identifier foo at large")
				}
				return true
			})
		}
	}),
}

var noop = check{
	name: "noop",
	doc:  "reports nothing",
	run:  eachUnit(func(*pass) {}),
}

// emptyTree is a loader with no packages of its own: the harness's own
// fixtures import nothing.
func emptyTree() *loader { return &loader{fset: stdFileSet()} }

func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportfFormatsAndDelivers(t *testing.T) {
	p := &pass{}
	p.reportf(42, "offset %d is %s", 3, "odd")
	p.reportf(7, "plain")
	if len(p.diags) != 2 {
		t.Fatalf("delivered %d diagnostics, want 2", len(p.diags))
	}
	if got := p.diags[0]; got.pos != 42 || got.anchor.IsValid() || got.message != "offset 3 is odd" {
		t.Errorf("first diagnostic = %+v", got)
	}
	if got := p.diags[1]; got.pos != 7 || got.message != "plain" {
		t.Errorf("second diagnostic = %+v", got)
	}
}

func TestRunMatchesWants(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar foo = 1 // want `foo at large`\nvar bar = 2\n")
	runFixture(t, emptyTree(), findFoo, "example/p", f)
}

func TestCompareFlagsUnexpectedDiagnostic(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar foo = 1\n")
	findings, err := fixtureFindings(emptyTree(), []check{findFoo}, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := compare([]string{f}, findings)
	if len(problems) != 1 || !strings.Contains(problems[0], "unexpected diagnostic") {
		t.Fatalf("problems = %q, want one unexpected-diagnostic entry", problems)
	}
}

func TestCompareFlagsUnmatchedWant(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar bar = 2 // want `foo at large`\n")
	findings, err := fixtureFindings(emptyTree(), []check{noop}, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := compare([]string{f}, findings)
	if len(problems) != 1 || !strings.Contains(problems[0], "no diagnostic matched") {
		t.Fatalf("problems = %q, want one unmatched-want entry", problems)
	}
}

func TestCompareRejectsMalformedWants(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar a = 1 // want nothing quoted\nvar b = 2 // want `ba(d`\n")
	findings, err := fixtureFindings(emptyTree(), []check{noop}, "example/p", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	problems := compare([]string{f}, findings)
	if len(problems) != 2 {
		t.Fatalf("problems = %q, want a no-regexp entry and a bad-regexp entry", problems)
	}
	if !strings.Contains(problems[0], "no backquoted regexp") || !strings.Contains(problems[1], "bad want regexp") {
		t.Fatalf("problems = %q", problems)
	}
}

func TestDiagnosticsRejectsParseError(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nfunc {\n")
	if _, err := fixtureFindings(emptyTree(), []check{findFoo}, "example/p", []string{f}); err == nil {
		t.Fatal("unparsable fixture produced no error")
	}
}

func TestDiagnosticsRejectsTypeError(t *testing.T) {
	f := write(t, "fix.go", "package p\n\nvar x = undefinedSymbol\n")
	_, err := fixtureFindings(emptyTree(), []check{findFoo}, "example/p", []string{f})
	if err == nil || !strings.Contains(err.Error(), "does not typecheck") {
		t.Fatalf("err = %v, want a typecheck failure", err)
	}
}

// Each check runs over its fixture with the claimed import path that puts
// the fixture inside the check's scope.
func TestDetRandFixture(t *testing.T) {
	runFixture(t, moduleTree(t), detRandCheck, "qnp/internal/sim", "testdata/detrand/fixture.go")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, moduleTree(t), mapOrderCheck, "qnp/internal/mapfix", "testdata/maporder/fixture.go")
}

func TestWSOwnershipFixture(t *testing.T) {
	runFixture(t, moduleTree(t), wsOwnershipCheck, "qnp/internal/wsfix", "testdata/wsownership/fixture.go")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, moduleTree(t), hotAllocCheck, "qnp/internal/device", "testdata/hotalloc/fixture.go")
}

func TestStreamOffsetFixture(t *testing.T) {
	runFixture(t, moduleTree(t), streamOffsetCheck, "qnp/internal/sim", "testdata/streamoffset/fixture.go")
}

// Malformed directives are the driver's to report, whichever checks run
// and in any package, simulation or not.
func TestDirectiveGrammarFixture(t *testing.T) {
	runFixture(t, moduleTree(t), detRandCheck, "qnp/internal/lintfix", "testdata/directives/fixture.go")
}

// The whole suite, every check, reports each malformed directive of the
// directives fixture exactly once: a second report of one would be a
// finding no want matches.
func TestSuiteReportsMalformedDirectivesOnce(t *testing.T) {
	root := t.TempDir()
	fixture := filepath.Join(root, "fixture.go")
	copyFile(t, "testdata/directives/fixture.go", fixture)
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module lintfix\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range compare([]string{fixture}, lintTree(t, root, checks...)) {
		t.Error(p)
	}
}

// Package-gated checks go quiet outside their scope: the same detrand
// fixture claimed as a non-simulation package yields nothing but its
// escape hatches, which have nothing left to suppress there.
func TestDetRandScopedToSimulationPackages(t *testing.T) {
	findings, err := fixtureFindings(moduleTree(t), []check{detRandCheck}, "qnp/internal/lintfix", []string{"testdata/detrand/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.message, "stale qnetlint directive") {
			t.Errorf("detrand reported outside a simulation package: %s", f)
		}
	}
}

// Cold functions outside hot-path packages keep the allocating forms even
// with a workspace in scope; only the stale escape hatch is reported.
func TestHotAllocScopedToHotPathPackages(t *testing.T) {
	findings, err := fixtureFindings(moduleTree(t), []check{hotAllocCheck}, "qnp/internal/experiments", []string{"testdata/hotalloc/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.message, "stale qnetlint directive") {
			t.Errorf("hotalloc reported outside a hot-path package: %s", f)
		}
	}
}

// A no-op check stands in for a disabled detrand: all it leaves is its
// escape hatches gone stale, and every other fixture want must turn into
// a harness failure, so silently disabling a check cannot keep the suite
// green.
func TestFixturesFailWhenCheckDisabled(t *testing.T) {
	disabled := check{
		name: detRandCheck.name,
		doc:  "no-op stand-in for a disabled check",
		run:  eachUnit(func(*pass) {}),
	}
	files := []string{"testdata/detrand/fixture.go"}
	findings, err := fixtureFindings(moduleTree(t), []check{disabled}, "qnp/internal/sim", files)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.message, "stale qnetlint directive") {
			t.Fatalf("no-op check reported %s", f)
		}
	}
	if problems := compare(files, findings); len(problems) == 0 {
		t.Fatal("fixture wants went unmatched yet compare reported nothing — a disabled check would pass CI")
	}
}

// The suite is six uniquely named checks; the findings' output, the
// directive grammar and the docs all key off these names.
func TestSuiteIntegrity(t *testing.T) {
	if len(checks) != 6 {
		t.Fatalf("suite has %d checks, want 6", len(checks))
	}
	seen := map[string]bool{}
	for _, c := range checks {
		if c.name == "" || c.doc == "" || c.run == nil {
			t.Errorf("check %q is missing name, doc or run", c.name)
		}
		if seen[c.name] {
			t.Errorf("duplicate check name %q", c.name)
		}
		seen[c.name] = true
	}
}

// The tree itself — the module with its tests, and the bench/ module —
// passes the whole suite: the five per-unit checks and testonly. It runs under
// -short and -race like any other test.
func TestQnetlintTree(t *testing.T) {
	findings, err := moduleTree(t).lint()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The testonly fixture is a module with a separate user module inside it:
// a test-only export, a test-only method and a test-only field are
// reported; uses from another package, from the user module, through an
// interface, through fmt.Stringer and through a generic instantiation
// count; a field production reads but only tests write is reported, and
// each kind of write (key, assignment, increment, &, pointer method,
// conversion, unkeyed literal, json decode, through a type parameter too)
// keeps one; the test-support package is exempt; an allow with a reason
// keeps its export, and one that keeps nothing is reported. The public
// non-main package api is a candidate too: its unused export and its
// test-written field are reported, the export the user module calls is not.
func TestTestOnlyFixture(t *testing.T) {
	const root = "testdata/testonly"
	for _, p := range compare(goFiles(t, root), lintTree(t, root, testOnlyCheck)) {
		t.Error(p)
	}
}

// A naked allow testonly is reported and keeps nothing. The fixture is
// written at test time: a naked directive in a checked-in file would trip
// the repository's own naked-directive grep.
func TestTestOnlyNakedAllow(t *testing.T) {
	root := t.TempDir()
	for _, src := range goFiles(t, "testdata/testonly") {
		copyFile(t, src, filepath.Join(root, strings.TrimPrefix(src, "testdata/testonly")))
	}
	for _, mod := range []string{"go.mod", "user/go.mod"} {
		copyFile(t, filepath.Join("testdata/testonly", mod), filepath.Join(root, mod))
	}
	naked := filepath.Join(root, "internal", "a", "naked.go")
	src := "package a\n\n//qnetlint:allow " + "testonly\nfunc Naked() {}\n"
	if err := os.WriteFile(naked, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{3: "allow directive has no reason", 4: "a.Naked is exported"}
	for _, f := range lintTree(t, root, testOnlyCheck) {
		if f.pos.Filename != naked {
			continue
		}
		if w, ok := want[f.pos.Line]; !ok || !strings.Contains(f.message, w) {
			t.Errorf("unexpected diagnostic %s", f)
			continue
		}
		delete(want, f.pos.Line)
	}
	for line, w := range want {
		t.Errorf("naked.go:%d: no diagnostic containing %q", line, w)
	}
}

// copyFile copies src to dst, creating dst's directory.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(dst), 0o755)
	}
	if err == nil {
		err = os.WriteFile(dst, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// goFiles lists every .go file under root.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
