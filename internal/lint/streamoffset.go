package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// streamOffsetCheck polices the RNG stream discipline: replica seeds are
// base*runner.SeedStride + offset, engine-side offsets live in the qnet
// stream registry as named …StreamOffset constants (even, nonzero) and the
// per-circuit workload family takes the odd offsets via
// workloadStreamOffset. Three checks:
//
//  1. The literal 7919 outside internal/runner is a hand-rolled copy of
//     SeedStride: if runner changes the stride, the copy silently aliases
//     a different replica's stream. Use runner.SeedStride/DeriveSeed.
//  2. In simulation packages, a rand.NewSource seed built with arithmetic
//     must multiply by runner.SeedStride and add a named …StreamOffset
//     constant or helper — never ad-hoc literals, which is how two streams
//     end up sharing a seed.
//  3. A …StreamOffset constant must be even and nonzero: odd offsets are
//     reserved for the per-circuit workload family and offset 0 is the
//     physics stream itself.
var streamOffsetCheck = check{
	name: "streamoffset",
	doc: "RNG stream offsets come from the registry; seed arithmetic uses runner.SeedStride\n\n" +
		"No bare 7919 outside internal/runner; rand.NewSource seed\n" +
		"arithmetic multiplies by runner.SeedStride and adds a named\n" +
		"…StreamOffset constant/helper; engine offsets are even and nonzero.",
	run: eachUnit(runStreamOffset),
}

func runStreamOffset(pass *pass) {
	inRunner := strings.TrimSuffix(pass.pkg.Path(), "_test") == modulePath+"/internal/runner"
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if !inRunner && n.Kind == token.INT && n.Value == "7919" {
					pass.reportf(n.Pos(), "bare 7919 duplicates runner.SeedStride: if the stride changes this expression silently aliases another replica's stream — use runner.SeedStride or runner.DeriveSeed")
				}
			case *ast.CallExpr:
				if isSimulationPackage(pass.pkg.Path()) {
					checkNewSourceSeed(pass, n)
				}
			case *ast.GenDecl:
				if n.Tok == token.CONST {
					checkOffsetConsts(pass, n)
				}
			}
			return true
		})
	}
}

// checkNewSourceSeed validates the seed expression of a rand.NewSource
// call. Bare seeds (a literal, an ident, cfg.Seed, a call) are fine — the
// discipline only constrains derived seeds, i.e. arithmetic.
func checkNewSourceSeed(pass *pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != "NewSource" {
		return
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	seed := unparen(call.Args[0])
	be, ok := seed.(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.ADD:
		checkSeedTerm(pass, be.X, true)
		checkSeedTerm(pass, be.Y, false)
	case token.MUL:
		checkStrideProduct(pass, be)
	default:
		pass.reportf(be.Pos(), "derived rand.NewSource seed uses %s arithmetic: replica streams are base*runner.SeedStride + <registry offset> only (//qnetlint:allow streamoffset <reason> if deliberate)", be.Op)
	}
}

// checkSeedTerm validates one side of seed = X + Y. The stride side is a
// product that must involve runner.SeedStride; the offset side must be a
// named …StreamOffset constant or helper call.
func checkSeedTerm(pass *pass, e ast.Expr, strideSide bool) {
	e = unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.MUL {
		checkStrideProduct(pass, be)
		return
	}
	if strideSide {
		// Plain base on the left of the + (seed + offset form): fine.
		if isStreamOffsetRef(pass.info, e) {
			return
		}
		return
	}
	if !isStreamOffsetRef(pass.info, e) {
		pass.reportf(e.Pos(), "RNG stream offset is not a registry name: declare it as a …StreamOffset constant/helper next to the others so the even/odd family audit sees it (//qnetlint:allow streamoffset <reason> if deliberate)")
	}
}

// checkStrideProduct requires one factor of a seed product to be
// runner.SeedStride.
func checkStrideProduct(pass *pass, be *ast.BinaryExpr) {
	if isSeedStrideRef(pass.info, be.X) || isSeedStrideRef(pass.info, be.Y) {
		return
	}
	pass.reportf(be.Pos(), "seed product does not multiply by runner.SeedStride — replica stream separation must come from the shared stride (use runner.SeedStride or runner.DeriveSeed)")
}

// isSeedStrideRef reports whether e denotes the runner.SeedStride constant.
func isSeedStrideRef(info *types.Info, e ast.Expr) bool {
	obj := exprObject(info, unparen(e))
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == modulePath+"/internal/runner" && obj.Name() == "SeedStride"
}

// isStreamOffsetRef reports whether e is a named …StreamOffset constant,
// variable, or helper call — i.e. it came from the stream registry.
func isStreamOffsetRef(info *types.Info, e ast.Expr) bool {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		fn := calleeFunc(info, call)
		return fn != nil && isStreamOffsetName(fn.Name())
	}
	if obj := exprObject(info, e); obj != nil {
		return isStreamOffsetName(obj.Name())
	}
	return false
}

func isStreamOffsetName(name string) bool {
	return strings.HasSuffix(name, "StreamOffset")
}

// checkOffsetConsts enforces the even/nonzero rule on …StreamOffset
// constants: odd values are the workload family's, zero is the physics
// stream.
func checkOffsetConsts(pass *pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			if !isStreamOffsetName(name.Name) {
				continue
			}
			c, ok := pass.info.ObjectOf(name).(*types.Const)
			if !ok {
				continue
			}
			v, exact := constant.Int64Val(constant.ToInt(c.Val()))
			if !exact {
				continue
			}
			switch {
			case v == 0:
				pass.reportf(name.Pos(), "stream offset %s is 0: that seed belongs to the physics stream — pick the next free even offset", name.Name)
			case v%2 != 0:
				pass.reportf(name.Pos(), "stream offset %s is odd (%d): odd offsets are reserved for the per-circuit workload family (workloadStreamOffset) — engine offsets must be even", name.Name, v)
			}
		}
	}
}
