package simlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded package ready for analysis: type-checked by Load,
// parsed only by Parse (Types and Info nil). Only
// non-test files are loaded: the determinism contract governs shipped
// simulator code, and tests legitimately use wall clocks, goroutines and
// ad-hoc randomness for harness plumbing.
type Package struct {
	Dir   string
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages. All packages loaded by one Loader
// share a FileSet and an importer, so dependencies (including the standard
// library, type-checked from GOROOT source — this environment vendors no
// export data and no x/tools) are resolved once per Loader.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader backed by the source importer, which resolves
// both standard-library and module-internal imports from source — fully
// offline and deterministic.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Parse parses the non-test .go files of dir, comments included, as the
// package with the given import path, without type-checking them: all Run
// reads of a package outside the determinism contract is its directives.
func (l *Loader) Parse(dir, path string) (*Package, error) {
	names, err := GoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("simlint: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return &Package{Dir: dir, Path: path, Fset: l.fset, Files: files}, nil
}

// Load parses the non-test .go files of dir and type-checks them as the
// package with the given import path.
func (l *Loader) Load(dir, path string) (*Package, error) {
	pkg, err := l.Parse(dir, path)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l.imp}
	pkg.Types, err = conf.Check(path, l.fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("simlint: type-checking %s: %w", path, err)
	}
	pkg.Info = info
	return pkg, nil
}

// GoFiles returns the sorted non-test .go files of dir.
func GoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	return names, nil
}
