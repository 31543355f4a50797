// Package linttest is the fixture harness for the qnetlint analyzers: an
// offline, dependency-free analogue of x/tools' analysistest. A fixture is
// a Go file under the caller's testdata/ tree annotated with trailing
//
//	// want `regexp`
//
// comments on each line where the analyzer must report (several backquoted
// regexps may follow one want, one per expected diagnostic). Run typechecks
// the fixture through the process's shared source importer (srcimport) —
// so fixtures import real qnp/... packages and the stdlib, each
// typechecked once per test binary, the stdlib once for the fixtures and
// the qnetlint tree loader together —
// applies one analyzer, and fails the test on any mismatch in either
// direction: a diagnostic no want matched, or a want no diagnostic
// matched. The second direction is the suite's own safety net: a disabled
// or broken analyzer turns every fixture want into a failure.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strings"
	"testing"

	"qnp/internal/lint/analysis"
	"qnp/internal/lint/srcimport"
)

// Run typechecks files as a package claiming import path pkgPath, applies
// a, and compares its diagnostics against the files' want comments. The
// claimed path is what the analyzer sees as Pkg.Path(): claim a simulation
// or hot-path package to put the fixture inside a path-gated analyzer's
// scope, anything else to stay outside it.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath string, files ...string) {
	t.Helper()
	diags, fset, err := Diagnostics(a, pkgPath, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Compare(fset, files, diags) {
		t.Error(p)
	}
}

// Diagnostics parses and typechecks the fixture files as pkgPath and
// returns a's diagnostics. Fixture imports resolve from source relative to
// the test's working directory, which `go test` places inside the module.
func Diagnostics(a *analysis.Analyzer, pkgPath string, files []string) ([]analysis.Diagnostic, *token.FileSet, error) {
	fset := srcimport.FileSet()
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: srcimport.Importer(),
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(pkgPath, fset, parsed, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("fixture does not typecheck:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, nil, err
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     parsed,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	a.Run(pass)
	return diags, fset, nil
}

var (
	wantRE = regexp.MustCompile(`// want (.+)$`)
	patRE  = regexp.MustCompile("`([^`]+)`")
)

// Compare matches diagnostics against the files' want comments and returns
// one problem string per mismatch; an empty slice means the fixture passed.
// Each want consumes exactly one diagnostic on its own line.
func Compare(fset *token.FileSet, files []string, diags []analysis.Diagnostic) []string {
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
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.hit {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re))
		}
	}
	return problems
}
