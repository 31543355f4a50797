// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough surface — Analyzer,
// Pass, Diagnostic — for qnetlint's checkers to be written in the standard
// shape (name + doc + Run(*Pass)) and run either over the whole tree by
// internal/lint's lintTree or by the fixture harness (internal/lint/linttest).
//
// The x/tools module is deliberately not vendored: the container builds
// offline, and the five qnetlint analyzers need only syntax, type info and a
// Report callback — none of the fact propagation, result dependencies or
// SSA passes the full framework adds.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors the x/tools type of the
// same name so the checkers read idiomatically, less Run's result and
// error, which no qnetlint check produces.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and escape-hatch
	// comments (//qnetlint:allow <name> <reason>). It must be a valid
	// identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Run applies the analyzer to one package and reports diagnostics via
	// pass.Report.
	Run func(*Pass)
}

// Pass provides one analyzed package to an Analyzer's Run function: the
// syntax trees, the type information, and the Report sink.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the package's type-checking results.
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns ordering and output.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos. It is the common path the
// checkers use; the format verbs are fmt.Sprintf's.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
