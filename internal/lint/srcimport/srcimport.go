// Package srcimport holds the one go/types source importer of a process,
// shared by the qnetlint tree loader and the fixture harness (linttest):
// every package either of them imports from outside its own sources, the
// standard library above all, is typechecked from source once per test
// binary instead of once per user.
package srcimport

import (
	"go/importer"
	"go/token"
	"go/types"
	"sync"
)

// shared is the importer and the file set its packages are positioned in.
// The source importer is not safe for concurrent use; mu serialises it.
var shared struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.ImporterFrom
}

func setup() {
	shared.once.Do(func() {
		shared.fset = token.NewFileSet()
		shared.imp = importer.ForCompiler(shared.fset, "source", nil).(types.ImporterFrom)
	})
}

// FileSet returns the file set of the imported packages. Callers parse
// their own files into it, so every position they report resolves.
func FileSet() *token.FileSet {
	setup()
	return shared.fset
}

// Importer returns the shared importer. It is safe for concurrent use.
func Importer() types.ImporterFrom { return imp{} }

type imp struct{}

func (imp) Import(path string) (*types.Package, error) { return imp{}.ImportFrom(path, ".", 0) }

func (imp) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	setup()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.imp.ImportFrom(path, dir, mode)
}
