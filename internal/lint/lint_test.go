package lint

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qnp/internal/lint/analysis"
	"qnp/internal/lint/linttest"
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

// Each analyzer runs over its fixture with the claimed import path that
// puts the fixture inside the analyzer's scope.
func TestDetRandFixture(t *testing.T) {
	linttest.Run(t, detRandAnalyzer, moduleTree(t), "qnp/internal/sim", "testdata/detrand/fixture.go")
}

func TestMapOrderFixture(t *testing.T) {
	linttest.Run(t, mapOrderAnalyzer, moduleTree(t), "qnp/internal/mapfix", "testdata/maporder/fixture.go")
}

func TestWSOwnershipFixture(t *testing.T) {
	linttest.Run(t, wsOwnershipAnalyzer, moduleTree(t), "qnp/internal/wsfix", "testdata/wsownership/fixture.go")
}

func TestHotAllocFixture(t *testing.T) {
	linttest.Run(t, hotAllocAnalyzer, moduleTree(t), "qnp/internal/device", "testdata/hotalloc/fixture.go")
}

func TestStreamOffsetFixture(t *testing.T) {
	linttest.Run(t, streamOffsetAnalyzer, moduleTree(t), "qnp/internal/sim", "testdata/streamoffset/fixture.go")
}

// Malformed directives surface through the designated grammar reporter in
// any package, simulation or not.
func TestDirectiveGrammarFixture(t *testing.T) {
	linttest.Run(t, detRandAnalyzer, moduleTree(t), "qnp/internal/lintfix", "testdata/directives/fixture.go")
}

// Package-gated analyzers go quiet outside their scope: the same detrand
// fixture claimed as a non-simulation package yields nothing but its
// escape hatches, which have nothing left to suppress there.
func TestDetRandScopedToSimulationPackages(t *testing.T) {
	diags, _, err := linttest.Diagnostics(detRandAnalyzer, moduleTree(t), "qnp/internal/lintfix", []string{"testdata/detrand/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "stale qnetlint directive") {
			t.Errorf("detrand reported outside a simulation package: %s", d.Message)
		}
	}
}

// Cold functions outside hot-path packages keep the allocating forms even
// with a workspace in scope; only the stale escape hatch is reported.
func TestHotAllocScopedToHotPathPackages(t *testing.T) {
	diags, _, err := linttest.Diagnostics(hotAllocAnalyzer, moduleTree(t), "qnp/internal/experiments", []string{"testdata/hotalloc/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "stale qnetlint directive") {
			t.Errorf("hotalloc reported outside a hot-path package: %s", d.Message)
		}
	}
}

// A no-op analyzer stands in for a disabled check: every fixture want must
// turn into a harness failure, so silently disabling an analyzer cannot
// keep the suite green.
func TestFixturesFailWhenCheckDisabled(t *testing.T) {
	noop := &analysis.Analyzer{
		Name: detRandAnalyzer.Name,
		Doc:  "no-op stand-in for a disabled check",
		Run:  func(*analysis.Pass) {},
	}
	files := []string{"testdata/detrand/fixture.go"}
	diags, fset, err := linttest.Diagnostics(noop, moduleTree(t), "qnp/internal/sim", files)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("no-op analyzer reported %d diagnostics", len(diags))
	}
	if problems := linttest.Compare(fset, files, diags); len(problems) == 0 {
		t.Fatal("fixture wants went unmatched yet Compare reported nothing — a disabled analyzer would pass CI")
	}
}

// The suite is five uniquely named analyzers; the findings' output, the
// directive grammar and the docs all key off these names.
func TestSuiteIntegrity(t *testing.T) {
	as := analyzers()
	if len(as) != 5 {
		t.Fatalf("suite has %d analyzers, want 5", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing name, doc or run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if !seen[grammarReporter] {
		t.Errorf("grammar reporter %q is not in the suite", grammarReporter)
	}
}

// The tree itself — the module with its tests, and the bench/ module —
// passes the whole suite: the five analyzers and testonly. It runs under
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
// keeps its export, and one that keeps nothing is reported.
func TestTestOnlyFixture(t *testing.T) {
	const root = "testdata/testonly"
	diags, fset := testOnlyDiagnostics(t, root)
	for _, p := range linttest.Compare(fset, goFiles(t, root), diags) {
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
	diags, fset := testOnlyDiagnostics(t, root)
	want := map[int]string{3: "allow directive has no reason", 4: "a.Naked is exported"}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if pos.Filename != naked {
			continue
		}
		if w, ok := want[pos.Line]; !ok || !strings.Contains(d.Message, w) {
			t.Errorf("unexpected diagnostic %s: %s", pos, d.Message)
			continue
		}
		delete(want, pos.Line)
	}
	for line, w := range want {
		t.Errorf("naked.go:%d: no diagnostic containing %q", line, w)
	}
}

// testOnlyDiagnostics loads the tree under root and runs testonly on it.
func testOnlyDiagnostics(t *testing.T, root string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	l, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := l.testOnly()
	if err != nil {
		t.Fatal(err)
	}
	return diags, l.fset
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
