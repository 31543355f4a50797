// Package lint is qnetlint: the simulator's own static-analysis suite.
//
// The paper's protocol evaluation rests on deterministic discrete-event
// simulation — same seed, same event timeline, byte-identical figure output
// — and the project history shows every regression class that threatened it
// (map-iteration float ordering, RNG stream aliasing, workspace Get/Put
// leaks, allocating wrappers creeping back into hot paths) was caught only
// after the fact by byte-identity CI runs. This package encodes those
// conventions as static checks instead of review lore. Five
// analyzers:
//
//   - detrand: simulation packages must not read wall-clock time or the
//     global math/rand source. All randomness flows from the replica seed.
//   - maporder: a `for range` over a map must not accumulate floats, emit
//     output, feed the stats aggregators, or build an unsorted slice — map
//     order is random per run, so any order-sensitive fold diverges
//     between replicas and reruns.
//   - wsownership: a linalg.Workspace.Get/GetRaw result must be Put back,
//     deferred, or visibly handed off (returned, stored in a field) on
//     every path out of the function — the PR 3 ownership rules.
//   - hotalloc: inside workspace-threaded functions in hot-path packages,
//     calls to an allocating linalg op whose …Into twin exists, or to
//     quantum.BellProjector instead of BellProjectorCached, are flagged.
//   - streamoffset: RNG stream offsets must come from the qnet stream
//     registry (named *StreamOffset constants/helpers, engine offsets even
//     and nonzero) and seed arithmetic must go through runner.SeedStride /
//     runner.DeriveSeed — never a bare 7919 or literal offset.
//
// A sixth check, testonly, needs the whole module at once, so it is not an
// Analyzer (see testonly.go). Its candidates are the root module's library
// packages: every non-main package (internal/ and the public qnet alike)
// except test support. It reports every exported func, method, type,
// const, var and struct field of those packages that no non-test file of
// the commands (cmd/, examples/), of the library they import or of the
// bench/ module uses, and every exported struct field that non-test code
// reads but only tests write. Delete such API or move it into the
// package's _test.go; an inspection hook that another package's tests
// need, or a public knob the paper's service model names, stays under
// `//qnetlint:allow testonly <reason>`. Packages that only tests import
// are test support (internal/race, internal/linalg/linalgtest) and are
// exempt.
//
// Escape hatches use the //qnetlint: comment grammar (see directives.go):
// `//qnetlint:allow <analyzer> <reason>` on or directly above the flagged
// line, and `//qnetlint:sorted <reason>` for maporder. A reason is
// mandatory; a naked directive is itself a diagnostic, and so are an
// allow naming no check of the suite and a stale one that suppresses
// nothing.
//
// TestQnetlintTree runs the suite as part of the ordinary test suite: it
// loads the module and the bench/ module from source once (load.go),
// runs the five analyzers over every package together with its in-package
// tests, over the external test packages and over test-only packages,
// runs testonly over the production packages, and fails on each finding,
// printed as file:line:col: message [check]:
//
//	go test ./internal/lint
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"qnp/internal/lint/analysis"
)

// analyzers returns the five-analyzer suite in its canonical order.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detRandAnalyzer,
		mapOrderAnalyzer,
		wsOwnershipAnalyzer,
		hotAllocAnalyzer,
		streamOffsetAnalyzer,
	}
}

// finding is one diagnostic of the whole-tree run and the check that
// raised it.
type finding struct {
	pos     token.Position
	message string
	check   string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.pos, f.message, f.check)
}

// lint runs the whole suite over the loaded tree: every analyzer over
// every unit, and testonly over the production packages. Findings come
// back sorted by position.
func (l *loader) lint() ([]finding, error) {
	var out []finding
	add := func(check string, d analysis.Diagnostic) {
		out = append(out, finding{l.fset.Position(d.Pos), d.Message, check})
	}
	diags, err := l.testOnly()
	if err != nil {
		return nil, err
	}
	for _, d := range diags {
		add(testOnlyName, d)
	}
	units, err := l.units()
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		for _, a := range analyzers() {
			a.Run(&analysis.Pass{
				Analyzer:  a,
				Fset:      l.fset,
				Files:     u.files,
				Pkg:       u.pkg,
				TypesInfo: u.info,
				Report:    func(d analysis.Diagnostic) { add(a.Name, d) },
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Offset != b.pos.Offset {
			return a.pos.Offset < b.pos.Offset
		}
		return a.message < b.message
	})
	return out, nil
}

// modulePath is the module all checked packages live in. Analyzer scope
// tables below are full package paths under it.
const modulePath = "qnp"

// simulationPackages are the packages whose code runs inside the
// deterministic event loop: everything here must be a pure function of the
// replica seed. detrand enforces the no-wall-clock/no-global-rand rule in
// exactly these packages; streamoffset polices their rand.NewSource seed
// arithmetic.
var simulationPackages = map[string]bool{
	"qnp/internal/sim":       true,
	"qnp/qnet":               true,
	"qnp/internal/core":      true,
	"qnp/internal/routing":   true,
	"qnp/internal/linklayer": true,
	"qnp/internal/device":    true,
	"qnp/internal/hardware":  true,
	"qnp/internal/werner":    true,
	"qnp/internal/quantum":   true,
	"qnp/internal/signaling": true,
}

// hotPathPackages are the allocation-free packages: the quantum engine and
// the device/link stack it runs under, the scalar Werner tier, the protocol
// core, and the routing planner's workspace-threaded budget search.
// hotalloc flags allocating-API calls only here, and only inside
// workspace-threaded functions.
var hotPathPackages = map[string]bool{
	"qnp/internal/quantum":   true,
	"qnp/internal/device":    true,
	"qnp/internal/hardware":  true,
	"qnp/internal/linklayer": true,
	"qnp/internal/werner":    true,
	"qnp/internal/core":      true,
	"qnp/internal/linalg":    true,
	"qnp/internal/routing":   true,
}

// isSimulationPackage reports whether path is a simulation package.
// External-test packages (pkg_test) share their subject's rules.
func isSimulationPackage(path string) bool {
	return simulationPackages[strings.TrimSuffix(path, "_test")]
}

// isHotPathPackage reports whether path is a hot-path package.
func isHotPathPackage(path string) bool {
	return hotPathPackages[strings.TrimSuffix(path, "_test")]
}

// unparen strips any number of enclosing parentheses from e. (The stdlib
// grew ast.Unparen in go1.22; this module's language version predates it.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
