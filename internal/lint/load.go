package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// loader parses a module tree — nested modules such as bench/ included —
// and typechecks its packages from source on demand, offline: the tree's
// own import paths resolve here, everything else through the process's
// shared source importer (std). Production packages are checked
// once and shared by every importer; the test units are checked on top of
// them, as go vet sees them.
type loader struct {
	fset  *token.FileSet // stdFileSet()
	mods  []module       // sorted by descending directory depth
	pkgs  map[string]*loadedPkg
	paths []string // sorted keys of pkgs
}

type module struct{ path, dir string }

type loadedPkg struct {
	modDir      string      // the directory of the module it belongs to
	files       []*ast.File // non-test files
	tests       []*ast.File // _test.go files of the package itself
	xtests      []*ast.File // _test.go files of its external test package
	imports     []string    // of the non-test files
	testImports []string    // of the _test.go files
	pkg         *types.Package
	info        *types.Info
	checking    bool
	err         error
}

// unit is one typechecked set of files the per-unit checks run over.
type unit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// load finds and parses every module and package under root. testdata,
// vendor and dot- or underscore-prefixed directories are skipped, as the
// go command does.
func load(root string) (*loader, error) {
	l := &loader{
		fset: stdFileSet(),
		pkgs: map[string]*loadedPkg{},
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePathOf(filepath.Join(path, "go.mod")); err == nil {
			l.mods = append(l.mods, module{mod, path})
		} else if !os.IsNotExist(err) {
			return err
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(l.mods) == 0 || l.mods[0].dir != root {
		return nil, fmt.Errorf("qnetlint: %s is not a module root", root)
	}
	sort.SliceStable(l.mods, func(i, j int) bool { return len(l.mods[i].dir) > len(l.mods[j].dir) })
	for _, dir := range dirs {
		if err := l.loadDir(dir); err != nil {
			return nil, err
		}
	}
	for path := range l.pkgs {
		l.paths = append(l.paths, path)
	}
	sort.Strings(l.paths)
	return l, nil
}

// loadDir parses the Go files of one directory that the default build
// context selects.
func (l *loader) loadDir(dir string) error {
	var mod module
	for _, m := range l.mods {
		if dir == m.dir || strings.HasPrefix(dir, m.dir+string(filepath.Separator)) {
			mod = m
			break
		}
	}
	rel, err := filepath.Rel(mod.dir, dir)
	if err != nil {
		return err
	}
	path := mod.path
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &loadedPkg{modDir: mod.dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
			p.imports = appendImports(p.imports, f)
			continue
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		p.testImports = appendImports(p.testImports, f)
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		l.pkgs[path] = p
	}
	return nil
}

func appendImports(dst []string, f *ast.File) []string {
	for _, spec := range f.Imports {
		if path, err := strconv.Unquote(spec.Path.Value); err == nil {
			dst = append(dst, path)
		}
	}
	return dst
}

// modulePathOf reads the module directive of a go.mod file.
func modulePathOf(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s has no module directive", gomod)
}

// check typechecks one production package of the tree, and its imports
// first.
func (l *loader) check(path string) (*loadedPkg, error) {
	p := l.pkgs[path]
	switch {
	case p.pkg != nil || p.err != nil:
		return p, p.err
	case p.checking:
		return nil, fmt.Errorf("qnetlint: import cycle through %s", path)
	}
	p.checking = true
	p.pkg, p.info, p.err = l.typecheck(path, p.files)
	p.checking = false
	return p, p.err
}

// units typechecks the tree the way go vet splits it and returns the
// units in path order: each package together with its in-package tests
// (or alone, without any), then its external test package, which sees the
// production package. A package with only test files, such as the module
// root's, is a unit of its tests.
func (l *loader) units() ([]unit, error) {
	var out []unit
	for _, path := range l.paths {
		p := l.pkgs[path]
		switch {
		case len(p.tests) > 0:
			files := append(p.files[:len(p.files):len(p.files)], p.tests...)
			pkg, info, err := l.typecheck(path, files)
			if err != nil {
				return nil, err
			}
			out = append(out, unit{files, pkg, info})
		case len(p.files) > 0:
			if _, err := l.check(path); err != nil {
				return nil, err
			}
			out = append(out, unit{p.files, p.pkg, p.info})
		}
		if len(p.xtests) > 0 {
			pkg, info, err := l.typecheck(path+"_test", p.xtests)
			if err != nil {
				return nil, err
			}
			out = append(out, unit{p.xtests, pkg, info})
		}
	}
	return out, nil
}

// typecheck checks files as the package path, with the type information
// the checks read.
func (l *loader) typecheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	var errs []string
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err.Error()) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("qnetlint: %s does not typecheck:\n  %s", path, strings.Join(errs, "\n  "))
	}
	return pkg, info, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: the tree's own packages are
// typechecked here, from source; the rest comes from the source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil && len(p.files) > 0 {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	std.mu.Lock()
	defer std.mu.Unlock()
	return std.imp.ImportFrom(path, dir, mode)
}

// std is the one source importer of a process and the file set its
// packages are positioned in. Every loader parses into that file set and
// imports what lies outside its tree, the standard library above all,
// through it, so each such package is typechecked from source once per
// test binary however many loaders the tests build. The importer is not
// safe for concurrent use; mu serialises it.
var std struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.ImporterFrom
}

// stdFileSet returns the shared file set, setting up the importer on
// first use.
func stdFileSet() *token.FileSet {
	std.once.Do(func() {
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil).(types.ImporterFrom)
	})
	return std.fset
}
