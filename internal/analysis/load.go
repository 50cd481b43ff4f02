package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package directory.
type Package struct {
	// Dir is the package's directory on disk.
	Dir string
	// PkgPath is the import path (a directory-derived pseudo-path for
	// directories outside the module, e.g. analyzer testdata).
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// loader is the Loader that produced this package; Run reaches the
	// module call graph through it for the interprocedural analyzers.
	loader *Loader
}

// Loader type-checks package directories with only the standard library: the
// module's own packages are loaded from source by walking up to go.mod, and
// everything else (std) is delegated to go/importer's "source" importer. One
// Loader shares a FileSet and caches across loads, so loading a package's
// dependencies is paid once.
//
// Cgo is disabled for all loading (the source importer cannot run cgo, and
// nothing NR-critical needs it); std packages like net fall back to their
// pure-Go variants, matching a CGO_ENABLED=0 build.
type Loader struct {
	Fset  *token.FileSet
	sizes types.Sizes
	std   types.Importer

	modRoot, modPath string

	pkgs    map[string]*Package
	loading map[string]bool

	// graph caches the module call graph (callgraph.go), rebuilt whenever
	// more packages have been loaded since the last Graph() call.
	graphMu sync.Mutex
	graph   *Graph
}

// NewLoader builds a Loader.
func NewLoader() *Loader {
	// The "source" importer reads &build.Default; cgo must be off before the
	// first import (see type comment).
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	return &Loader{
		Fset:    fset,
		sizes:   sizes,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// findModule walks up from dir to the enclosing go.mod and returns its
// directory and module path.
func findModule(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadDir loads and type-checks the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if l.modRoot == "" {
		root, path, err := findModule(abs)
		if err != nil {
			return nil, err
		}
		l.modRoot, l.modPath = root, path
	}
	return l.load(l.pathFor(abs), abs)
}

// pathFor derives an import path for a directory: module-relative when the
// directory is inside the module, the slashed absolute directory otherwise.
func (l *Loader) pathFor(abs string) string {
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// Import resolves an import path for the type checker: unsafe specially, the
// module's own packages from source via this loader, everything else via the
// std source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one directory, memoized by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bctx := build.Default
	bctx.CgoEnabled = false
	bp, err := bctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Sizes:    l.sizes,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	pkg := &Package{
		Dir:     dir,
		PkgPath: path,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		loader:  l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
