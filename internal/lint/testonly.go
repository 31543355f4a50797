package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"qnp/internal/lint/analysis"
)

// testOnlyName is the analyzer name the testonly check answers to in
// //qnetlint:allow directives.
const testOnlyName = "testonly"

// testOnly is the whole-module check: over the production packages of
// the loaded tree it reports each exported func, method, type, const, var
// and struct field declared in the root module's internal/ packages that
// no non-test file uses. An Analyzer sees one package at a time, so this
// check cannot be one; the loader's lint runs it over the whole tree instead.
//
// It also reports an exported struct field of those packages that non-test
// code reads but only tests write: production always sees its zero value.
// A write is a composite-literal element, an assignment, an increment, a
// struct conversion, a pointer-receiver method call on the field, or &s.F. Reflection decoders
// (encoding/json and its kin) write whatever a pointer handed to them as
// an interface{} reaches, so such a pointer counts as writing every field
// under it, and a type parameter's pointer counts for every type argument
// of the tree.
//
// Three rules keep the use check exact:
//   - a method counts as used when it satisfies a method of an interface
//     that production code calls, or of a standard-library interface (the
//     library calls String, Error, MarshalJSON, Less, ... for you);
//   - uses of generic types and their methods and fields resolve through
//     Origin to the declared object;
//   - production code is every package outside internal/ plus what it
//     imports from non-test files. An internal package outside that set
//     that tests import is a test-support package: its exports are exempt,
//     and its own uses do not count.
//
// A `//qnetlint:allow testonly <reason>` directive on or directly above a
// declaration keeps it; a directive without a reason, or one that keeps
// nothing, is itself reported.
func (l *loader) testOnly() ([]analysis.Diagnostic, error) {
	mainMod := l.mods[len(l.mods)-1].path // the root module sorts last
	internal := func(path string) bool { return strings.HasPrefix(path, mainMod+"/internal/") }

	// Production code: every package outside internal/, closed over the
	// imports of its non-test files. Test code: _test.go files, closed the
	// same way; what it reaches outside production is test support.
	prod, support := map[string]bool{}, map[string]bool{}
	var reach func(set map[string]bool, path string)
	reach = func(set map[string]bool, path string) {
		p := l.pkgs[path]
		if p == nil || set[path] || prod[path] || len(p.files) == 0 {
			return
		}
		set[path] = true
		for _, imp := range p.imports {
			reach(set, imp)
		}
	}
	for _, path := range l.paths {
		if !internal(path) {
			reach(prod, path)
		}
	}
	for _, path := range l.paths {
		for _, imp := range l.pkgs[path].testImports {
			reach(support, imp)
		}
	}

	c := &usage{
		used:      map[types.Object]bool{},
		calls:     map[string][]*types.Interface{},
		stdIfaces: map[string][]*types.Interface{},
		stdSeen:   map[*types.Package]bool{},
		written:   map[types.Object]bool{},
		decoded:   map[types.Type]bool{},
	}
	c.errorChain()
	for _, path := range l.paths {
		if !prod[path] {
			continue
		}
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		c.record(p, l.pkgs)
	}
	if c.decodesTypeParam {
		for _, t := range c.typeArgs {
			c.decode(t)
		}
	}

	// Candidates: the internal packages that are not test support. Dead
	// packages are typechecked here for the first time. The standard-library
	// interfaces their own code imports count like production's: go/types
	// calls a loader's Import however few callers the loader has.
	var cands []*loadedPkg
	for _, path := range l.paths {
		if !internal(path) || support[path] || len(l.pkgs[path].files) == 0 {
			continue
		}
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		c.stdInterfaces(p, l.pkgs)
		cands = append(cands, p)
	}

	// Directives: each well-formed allow testonly keeps the export declared
	// on its line or the next; the rest are reported.
	type allowKey struct {
		file string
		line int
	}
	var diags []analysis.Diagnostic
	allows := map[allowKey]*directive{}
	var order []*directive
	for _, path := range l.paths {
		for _, f := range l.pkgs[path].files {
			for _, d := range parseDirectives(f) {
				if d.analyzer != testOnlyName {
					continue
				}
				if d.malformed != "" {
					diags = append(diags, analysis.Diagnostic{Pos: d.pos, Message: "malformed qnetlint directive: " + d.malformed})
					continue
				}
				d := d
				pos := l.fset.Position(d.pos)
				allows[allowKey{pos.Filename, pos.Line}] = &d
				allows[allowKey{pos.Filename, pos.Line + 1}] = &d
				order = append(order, &d)
			}
		}
	}
	kept := map[*directive]bool{}

	for _, p := range cands {
		for _, e := range exportsOf(p.pkg) {
			var msg string
			switch {
			case !c.isUsed(e.obj):
				msg = "%s is exported but no non-test code uses it: delete it, move it into a _test.go file, or keep it with //qnetlint:allow %s <reason>"
			case c.readOnly(e.obj):
				msg = "%s is read but only tests write it: delete it, set it in non-test code, or keep it with //qnetlint:allow %s <reason>"
			default:
				continue
			}
			pos := l.fset.Position(e.obj.Pos())
			if d := allows[allowKey{pos.Filename, pos.Line}]; d != nil {
				kept[d] = true
				continue
			}
			diags = append(diags, analysis.Diagnostic{Pos: e.obj.Pos(), Message: fmt.Sprintf(msg, e.name, testOnlyName)})
		}
	}
	for _, d := range order {
		if !kept[d] {
			diags = append(diags, analysis.Diagnostic{Pos: d.pos, Message: "//qnetlint:allow testonly keeps nothing: no test-only export is declared on this line or the next"})
		}
	}
	return diags, nil
}

// export is one exported declaration and the name a reader looks it up
// by: sim.Microseconds, sim.(*Simulation).Stop, device.Pair.TrueIdx.
type export struct {
	obj  types.Object
	name string
}

// exportsOf lists a package's exported declarations in source order:
// package-level funcs, types, consts and vars, the exported methods of
// every named type, and the exported fields and interface methods of every
// struct and interface type declared at package level.
func exportsOf(pkg *types.Package) []export {
	var out []export
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		qual := pkg.Name() + "." + name
		if obj.Exported() {
			out = append(out, export{obj, qual})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() {
				continue
			}
			if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				out = append(out, export{m, fmt.Sprintf("%s.(*%s).%s", pkg.Name(), name, m.Name())})
			} else {
				out = append(out, export{m, qual + "." + m.Name()})
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() && !f.Anonymous() {
					out = append(out, export{f, qual + "." + f.Name()})
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					out = append(out, export{m, qual + "." + m.Name()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Pos() < out[j].obj.Pos() })
	return out
}

// usage accumulates what production code uses.
type usage struct {
	used map[types.Object]bool
	// calls maps an interface method name to the interfaces whose method of
	// that name production code calls (or takes as a value); stdIfaces does
	// the same for the standard library's interfaces, which the library
	// calls itself.
	calls, stdIfaces map[string][]*types.Interface
	stdSeen          map[*types.Package]bool
	// written holds the struct fields production code writes; decoded the
	// types whose fields a reflection decoder may write.
	written map[types.Object]bool
	decoded map[types.Type]bool
	// typeArgs are the type arguments of production's instantiations, and
	// decodesTypeParam whether a type parameter's pointer reaches a decoder.
	typeArgs         []types.Type
	decodesTypeParam bool
}

// record adds one production package's uses, writes and type arguments,
// and the standard-library interfaces it imports; tree holds the packages
// that are not the standard library's.
func (c *usage) record(p *loadedPkg, tree map[string]*loadedPkg) {
	for _, obj := range p.info.Uses {
		c.use(obj)
	}
	for _, inst := range p.info.Instances {
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			c.typeArgs = append(c.typeArgs, inst.TypeArgs.At(i))
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			c.recordWrites(p.info, n)
			return true
		})
	}
	c.stdInterfaces(p, tree)
}

// recordWrites marks the fields node n writes.
func (c *usage) recordWrites(info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		st, _ := deref(info.TypeOf(n)).Underlying().(*types.Struct)
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok && st != nil {
					c.write(info.Uses[id])
				}
			} else if st != nil {
				c.write(st.Field(i))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			c.writePath(info, lhs)
		}
	case *ast.IncDecStmt:
		c.writePath(info, n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			c.writePath(info, n.X)
		}
	case *ast.CallExpr:
		if tv := info.Types[n.Fun]; tv.IsType() {
			// A struct conversion copies every field from its operand.
			if st, ok := tv.Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					c.write(st.Field(i))
				}
			}
			return
		}
		sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
		if !ok {
			return // a builtin
		}
		if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.TypeOf(sel.X).Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					c.writePath(info, sel.X) // x.M() takes &x
				}
			}
		}
		params := sig.Params()
		for i, arg := range n.Args {
			pt := params.At(min(i, params.Len()-1)).Type()
			if sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid() {
				pt = pt.(*types.Slice).Elem()
			}
			if iface, ok := pt.Underlying().(*types.Interface); ok && iface.Empty() {
				if ptr, ok := info.TypeOf(arg).(*types.Pointer); ok {
					c.decode(ptr)
				}
			}
		}
	}
}

// writePath marks the fields along an assigned or addressed expression:
// a.F.G = v writes G, and F through it.
func (c *usage) writePath(info *types.Info, e ast.Expr) {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				c.write(s.Obj())
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// write marks a struct field, resolved to its generic origin, as written.
func (c *usage) write(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		c.written[v.Origin()] = true
	}
}

// decode marks every field a reflection decoder can reach from t as
// written.
func (c *usage) decode(t types.Type) {
	if c.decoded[t] {
		return
	}
	c.decoded[t] = true
	switch t := t.(type) {
	case *types.TypeParam:
		c.decodesTypeParam = true
	case *types.Named:
		c.decode(t.Underlying())
	case *types.Pointer:
		c.decode(t.Elem())
	case *types.Slice:
		c.decode(t.Elem())
	case *types.Array:
		c.decode(t.Elem())
	case *types.Map:
		c.decode(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.write(t.Field(i))
			c.decode(t.Field(i).Type())
		}
	}
}

// readOnly reports whether obj is a struct field production never writes.
func (c *usage) readOnly(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField() && !c.written[v]
}

// deref strips one pointer: the type of a composite literal elided in a
// []*T literal is *T.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// stdInterfaces adds the interfaces of the standard-library packages p
// imports to stdIfaces.
func (c *usage) stdInterfaces(p *loadedPkg, tree map[string]*loadedPkg) {
	for _, imp := range p.pkg.Imports() {
		if tree[imp.Path()] != nil || c.stdSeen[imp] {
			continue
		}
		c.stdSeen[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !types.IsInterface(tn.Type()) {
				continue
			}
			iface := tn.Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				c.stdIfaces[m] = append(c.stdIfaces[m], iface)
			}
		}
	}
}

// errorChain seeds stdIfaces with error and the unnamed interfaces
// errors.Is, errors.As and errors.Unwrap assert.
func (c *usage) errorChain() {
	errT := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	add := func(name string, params, results *types.Tuple) {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
		c.stdIfaces[name] = append(c.stdIfaces[name], iface)
	}
	c.stdIfaces["Error"] = []*types.Interface{errT.Underlying().(*types.Interface)}
	add("Unwrap", tuple(), tuple(errT))
	add("Unwrap", tuple(), tuple(types.NewSlice(errT)))
	add("Is", tuple(errT), tuple(types.Typ[types.Bool]))
	add("As", tuple(types.NewInterfaceType(nil, nil).Complete()), tuple(types.Typ[types.Bool]))
}

// use marks obj, resolved to its generic origin, as used.
func (c *usage) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		sig := o.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				c.calls[o.Name()] = append(c.calls[o.Name()], iface)
			}
		}
	case *types.Var:
		obj = o.Origin()
	}
	c.used[obj] = true
}

// isUsed reports whether a candidate export counts as used.
func (c *usage) isUsed(obj types.Object) bool {
	if c.used[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return satisfies(t, c.calls[fn.Name()]) || satisfies(t, c.stdIfaces[fn.Name()])
}

// satisfies reports whether the concrete type t, or a pointer to it,
// implements one of the interfaces.
func satisfies(t types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}
