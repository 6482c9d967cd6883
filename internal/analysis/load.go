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
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// XTest is the directory's external test package, ImportPath +
	// "_test", loaded with the package when tests are included; nil
	// when the directory has none.
	XTest *Package
}

// Loader parses and type-checks packages of the enclosing module from
// source. Standard-library imports are resolved through the stdlib
// source importer, so no pre-built export data (and no network) is
// needed. Module-internal imports are type-checked recursively and
// cached.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	// ExtraSrcDirs are searched before the module for import
	// resolution; analysistest points one at testdata/src so fixture
	// packages can provide stubs or import each other.
	ExtraSrcDirs []string

	std        types.Importer
	cache      map[string]*types.Package
	inProgress map[string]bool
}

// NewLoader builds a loader rooted at the module containing startDir.
func NewLoader(startDir string) (*Loader, error) {
	root, modPath, err := findModule(startDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*types.Package),
		inProgress: make(map[string]bool),
	}, nil
}

// ModuleRoot returns the directory holding go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// findModule walks up from dir to the nearest go.mod and parses its
// module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer, resolving extra source dirs first,
// then the module, then the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.inProgress[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, ok := l.srcDir(path)
	if !ok {
		return l.std.Import(path)
	}
	l.inProgress[path] = true
	defer delete(l.inProgress, path)
	pkg, err := l.load(dir, path, false, l)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg.Types
	return pkg.Types, nil
}

// srcDir returns the directory the loader type-checks path from: an
// extra source dir holding it, else the module's directory for it.
// ok is false for a path outside both (the standard library).
func (l *Loader) srcDir(path string) (dir string, ok bool) {
	for _, src := range l.ExtraSrcDirs {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rel)), true
	}
	return "", false
}

// Load parses and type-checks the package in dir under the given import
// path. When includeTests is set, in-package _test.go files are part of
// the package, and the directory's external test files are checked as
// the package's XTest.
func (l *Loader) Load(dir, importPath string, includeTests bool) (*Package, error) {
	return l.load(dir, importPath, includeTests, l)
}

func (l *Loader) load(dir, importPath string, includeTests bool, imp types.Importer) (*Package, error) {
	ctx := build.Default
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	pkg, err := l.check(dir, importPath, names, imp)
	if err != nil || !includeTests || len(bp.XTestGoFiles) == 0 {
		return pkg, err
	}
	xt := &testImporter{l: l, path: importPath, variant: map[string]*types.Package{importPath: pkg.Types}}
	pkg.XTest, err = l.check(dir, importPath+"_test", bp.XTestGoFiles, xt)
	return pkg, err
}

// check parses the named files of dir and type-checks them as
// importPath, resolving imports through imp.
func (l *Loader) check(dir, importPath string, names []string, imp types.Importer) (*Package, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// testImporter resolves an external test package's imports the way go
// test builds it: path, the package under test, is its variant with the
// in-package tests, and every source package that depends on path is
// type-checked again against that variant, so the test sees one
// package path per package.
type testImporter struct {
	l       *Loader
	path    string
	variant map[string]*types.Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := t.variant[path]; ok {
		return pkg, nil
	}
	pkg, err := t.l.Import(path)
	if err != nil || !t.l.dependsOn(pkg, t.path) {
		return pkg, err
	}
	dir, _ := t.l.srcDir(path)
	v, err := t.l.load(dir, path, false, t)
	if err != nil {
		return nil, err
	}
	t.variant[path] = v.Types
	return v.Types, nil
}

// dependsOn reports whether pkg imports path, directly or through the
// source packages the loader has checked.
func (l *Loader) dependsOn(pkg *types.Package, path string) bool {
	seen := make(map[string]bool)
	var walk func(*types.Package) bool
	walk = func(p *types.Package) bool {
		for _, imp := range p.Imports() {
			q := imp.Path()
			if q == path {
				return true
			}
			if l.cache[q] == imp && !seen[q] {
				seen[q] = true
				if walk(imp) {
					return true
				}
			}
		}
		return false
	}
	return walk(pkg)
}

// Expand resolves package patterns ("./...", "./internal/core",
// "gflink/internal/...") to (dir, importPath) pairs, skipping testdata
// and hidden directories, in deterministic order.
func (l *Loader) Expand(patterns []string) ([][2]string, error) {
	seen := make(map[string]bool)
	var out [][2]string
	add := func(dir, path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, [2]string{dir, path})
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		var base string
		switch {
		case pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") || filepath.IsAbs(pat):
			base = pat
		case pat == l.modulePath || strings.HasPrefix(pat, l.modulePath+"/"):
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, l.modulePath), "/")
			base = filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		default:
			return nil, fmt.Errorf("analysis: unsupported package pattern %q", pat)
		}
		base, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !recursive {
			ip, err := l.importPathFor(base)
			if err != nil {
				return nil, err
			}
			add(base, ip)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				ip, err := l.importPathFor(p)
				if err != nil {
					return err
				}
				add(p, ip)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DirFor maps a module-internal import path to the directory holding
// its sources, reporting whether the path belongs to this module and
// the directory contains Go files.
func (l *Loader) DirFor(path string) (string, bool) {
	if path != l.modulePath && !strings.HasPrefix(path, l.modulePath+"/") {
		return "", false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	if !hasGoFiles(dir) {
		return "", false
	}
	return dir, true
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
