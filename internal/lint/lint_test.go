package lint

import (
	"testing"

	"qnp/internal/lint/analysis"
	"qnp/internal/lint/linttest"
)

// Each analyzer runs over its fixture with the claimed import path that
// puts the fixture inside the analyzer's scope.
func TestDetRandFixture(t *testing.T) {
	linttest.Run(t, DetRandAnalyzer, "qnp/internal/sim", "testdata/detrand/fixture.go")
}

func TestMapOrderFixture(t *testing.T) {
	linttest.Run(t, MapOrderAnalyzer, "qnp/internal/mapfix", "testdata/maporder/fixture.go")
}

func TestWSOwnershipFixture(t *testing.T) {
	linttest.Run(t, WSOwnershipAnalyzer, "qnp/internal/wsfix", "testdata/wsownership/fixture.go")
}

func TestHotAllocFixture(t *testing.T) {
	linttest.Run(t, HotAllocAnalyzer, "qnp/internal/device", "testdata/hotalloc/fixture.go")
}

func TestStreamOffsetFixture(t *testing.T) {
	linttest.Run(t, StreamOffsetAnalyzer, "qnp/internal/sim", "testdata/streamoffset/fixture.go")
}

// Malformed directives surface through the designated grammar reporter in
// any package, simulation or not.
func TestDirectiveGrammarFixture(t *testing.T) {
	linttest.Run(t, DetRandAnalyzer, "qnp/internal/lintfix", "testdata/directives/fixture.go")
}

// Package-gated analyzers go quiet outside their scope: the same detrand
// fixture claimed as a non-simulation package yields nothing.
func TestDetRandScopedToSimulationPackages(t *testing.T) {
	diags, _, err := linttest.Diagnostics(DetRandAnalyzer, "qnp/internal/lintfix", []string{"testdata/detrand/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("detrand reported outside a simulation package: %s", d.Message)
	}
}

// Cold functions outside hot-path packages keep the allocating forms even
// with a workspace in scope.
func TestHotAllocScopedToHotPathPackages(t *testing.T) {
	diags, _, err := linttest.Diagnostics(HotAllocAnalyzer, "qnp/internal/experiments", []string{"testdata/hotalloc/fixture.go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("hotalloc reported outside a hot-path package: %s", d.Message)
	}
}

// A no-op analyzer stands in for a disabled check: every fixture want must
// turn into a harness failure, so silently disabling an analyzer cannot
// keep the suite green.
func TestFixturesFailWhenCheckDisabled(t *testing.T) {
	noop := &analysis.Analyzer{
		Name: DetRandAnalyzer.Name,
		Doc:  "no-op stand-in for a disabled check",
		Run:  func(*analysis.Pass) (interface{}, error) { return nil, nil },
	}
	files := []string{"testdata/detrand/fixture.go"}
	diags, fset, err := linttest.Diagnostics(noop, "qnp/internal/sim", files)
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

// The suite is five uniquely named analyzers; the driver's flags, the
// directive grammar and the docs all key off these names.
func TestSuiteIntegrity(t *testing.T) {
	as := Analyzers()
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
