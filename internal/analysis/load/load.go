// Package load type-checks packages for the lint suite without any
// dependency on golang.org/x/tools: module-local import paths are
// resolved by walking the repository, standard-library imports are
// type-checked from $GOROOT/src via go/importer's source importer, and
// analysistest fixtures come from per-analyzer testdata/src trees.
//
// Cgo is disabled for the whole load so the pure-Go variants of net and
// friends are selected; nothing in this repository needs cgo and the
// source importer cannot process it.
package load

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and caches packages for one module rooted at RootDir.
type Loader struct {
	// Module is the module path ("rainshine"); imports under it resolve
	// to directories beneath RootDir.
	Module  string
	RootDir string
	// FixtureRoot, when set, is an analysistest testdata/src directory
	// consulted before the module and the standard library.
	FixtureRoot string

	Fset *token.FileSet

	ctx  build.Context
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader for the module at rootDir.
func NewLoader(module, rootDir string) *Loader {
	l := &Loader{Module: module, RootDir: rootDir, Fset: token.NewFileSet()}
	l.init()
	return l
}

func (l *Loader) init() {
	// The source importer reads the process-global build context, so
	// cgo must be switched off there for the pure-Go stdlib variants.
	build.Default.CgoEnabled = false
	l.ctx = build.Default
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	l.pkgs = map[string]*Package{}
}

// Load type-checks the package at importPath (and, transitively, its
// imports) and returns it.
func (l *Loader) Load(importPath string) (*Package, error) {
	if l.pkgs == nil {
		l.init()
	}
	if p, ok := l.pkgs[importPath]; ok {
		if p == nil {
			return nil, fmt.Errorf("load: import cycle through %q", importPath)
		}
		return p, nil
	}
	dir, ok := l.resolveDir(importPath)
	if !ok {
		return nil, fmt.Errorf("load: cannot resolve %q below %s", importPath, l.RootDir)
	}
	l.pkgs[importPath] = nil // cycle marker
	p, err := l.loadDir(importPath, dir)
	if err != nil {
		delete(l.pkgs, importPath)
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// resolveDir maps an import path onto a source directory, or reports
// that the path belongs to the standard library.
func (l *Loader) resolveDir(importPath string) (string, bool) {
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(importPath))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	if importPath == l.Module {
		return l.RootDir, true
	}
	if rel, ok := strings.CutPrefix(importPath, l.Module+"/"); ok {
		return filepath.Join(l.RootDir, filepath.FromSlash(rel)), true
	}
	return "", false
}

// goFiles lists the buildable non-test .go files for dir, honoring
// build constraints via go/build. Test files are never type-checked;
// ParseTestFiles reads them syntax-only.
func (l *Loader) goFiles(dir string) ([]string, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]string, len(names))
	for i, n := range names {
		files[i] = filepath.Join(dir, n)
	}
	return files, nil
}

func (l *Loader) loadDir(importPath, dir string) (*Package, error) {
	paths, err := l.goFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(l.Fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", importPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s", importPath, dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importFor),
		Sizes:    types.SizesFor("gc", l.ctx.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load %s: %w", importPath, typeErrs[0])
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// importFor satisfies types.Importer for packages under analysis:
// fixture and module paths recurse through the loader, everything else
// is the standard library.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.resolveDir(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ParseTestFiles parses the *_test.go files of dir syntax-only (with
// comments, no type checking) into fset. Analyzers that audit
// test-side artifacts read these through Pass.TestFiles; a directory
// without test files yields nil. Files that fail to parse are skipped:
// the compiler owns test-file syntax errors, not the lint driver.
func ParseTestFiles(fset *token.FileSet, dir string) []*ast.File {
	ctx := build.Default
	ctx.CgoEnabled = false
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil && bp == nil {
		return nil
	}
	names := append(append([]string(nil), bp.TestGoFiles...), bp.XTestGoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err == nil {
			files = append(files, f)
		}
	}
	return files
}

// ModulePackages walks the module below root and returns the import
// paths of every buildable package, skipping testdata, hidden
// directories, and the lint suite's own fixture trees.
func ModulePackages(module, root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ctx := build.Default
		ctx.CgoEnabled = false
		bp, err := ctx.ImportDir(path, 0)
		if err != nil {
			// A directory without buildable Go files is not a package;
			// anything else (a file whose package clause will not scan,
			// two package names in one directory) must abort the walk
			// loudly — silently skipping it would let `./...` exit 0
			// with the package unanalyzed.
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(bp.GoFiles) > 0 {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				out = append(out, module)
			} else {
				out = append(out, module+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
