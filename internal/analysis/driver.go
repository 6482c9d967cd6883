package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one resolved diagnostic produced by a driver run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Rule binds an analyzer to the set of packages it applies to. A nil
// Applies runs the analyzer everywhere.
type Rule struct {
	Analyzer *Analyzer
	Applies  func(importPath string) bool
}

// Under returns a package predicate matching prefix and everything
// below it (e.g. Under("gflink/internal")).
func Under(prefix string) func(string) bool {
	return func(path string) bool {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
}

// Except wraps a predicate, excluding the exact packages given.
func Except(pred func(string) bool, paths ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range paths {
			if path == p {
				return false
			}
		}
		return pred == nil || pred(path)
	}
}

// Run loads every package matched by patterns (test files included,
// and a directory's external test package as a target of its own) and
// applies each rule whose predicate admits the package.
//
// When any rule's analyzer declares FactTypes, the run is
// interprocedural: module-internal dependencies of the targets are
// loaded too (without test files), every loaded package is analyzed in
// dependency order over one shared FactStore, and fact-producing
// analyzers run on the dependencies as well — with their diagnostics
// discarded — so cross-package facts exist by the time dependents need
// them. Diagnostics are only reported for the requested targets, and
// come back sorted by position for deterministic output.
func Run(l *Loader, patterns []string, rules []Rule) ([]Finding, error) {
	targets, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	isTarget := make(map[string]bool, len(targets))
	loaded := make(map[string]*Package)
	var paths []string
	for _, t := range targets {
		dir, importPath := t[0], t[1]
		pkg, err := l.Load(dir, importPath, true)
		if err != nil {
			return nil, err
		}
		for _, p := range []*Package{pkg, pkg.XTest} {
			if p != nil {
				isTarget[p.ImportPath] = true
				loaded[p.ImportPath] = p
				paths = append(paths, p.ImportPath)
			}
		}
	}

	// With facts in play, pull in module-internal dependencies so their
	// facts can be computed; breadth-first over file imports, visiting
	// in sorted order for determinism.
	if anyFacts(rules) {
		queue := append([]string(nil), paths...)
		sort.Strings(queue)
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, dep := range moduleImports(l, loaded[p]) {
				if loaded[dep] != nil {
					continue
				}
				dir, ok := l.DirFor(dep)
				if !ok {
					continue
				}
				pkg, err := l.Load(dir, dep, false)
				if err != nil {
					return nil, err
				}
				loaded[dep] = pkg
				paths = append(paths, dep)
				queue = append(queue, dep)
			}
		}
	}

	order := topoOrder(l, loaded)
	store := NewFactStore()
	var findings []Finding
	for _, path := range order {
		pkg := loaded[path]
		var active []Rule
		for _, r := range rules {
			if r.Applies != nil && !r.Applies(path) {
				continue
			}
			if !isTarget[path] && len(r.Analyzer.FactTypes) == 0 {
				continue // dependencies only run for their facts
			}
			active = append(active, r)
		}
		if len(active) == 0 {
			continue
		}
		fs, err := RunAnalyzers(pkg, active, store)
		if err != nil {
			return nil, err
		}
		if isTarget[path] {
			findings = append(findings, fs...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

func anyFacts(rules []Rule) bool {
	for _, r := range rules {
		if len(r.Analyzer.FactTypes) > 0 {
			return true
		}
	}
	return false
}

// moduleImports lists pkg's module-internal imports, sorted.
func moduleImports(l *Loader, pkg *Package) []string {
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == l.ModulePath() || strings.HasPrefix(path, l.ModulePath()+"/") {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// topoOrder sorts the loaded packages dependencies-first (imports
// restricted to the loaded set), breaking ties by import path so the
// order — and with it fact computation and finding emission — is
// deterministic.
func topoOrder(l *Loader, loaded map[string]*Package) []string {
	paths := make([]string, 0, len(loaded))
	for p := range loaded {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	state := make(map[string]int, len(paths)) // 0 unvisited, 1 visiting, 2 done
	var order []string
	var visit func(string)
	visit = func(p string) {
		if state[p] != 0 {
			return // done, or a cycle the type checker already rejected
		}
		state[p] = 1
		for _, dep := range moduleImports(l, loaded[p]) {
			if loaded[dep] != nil {
				visit(dep)
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// RunAnalyzers applies the given rules' analyzers to one loaded
// package. store carries facts across packages of a run; pass nil for
// a private, single-package store.
func RunAnalyzers(pkg *Package, rules []Rule, store *FactStore) ([]Finding, error) {
	if store == nil {
		store = NewFactStore()
	}
	var findings []Finding
	for _, r := range rules {
		a := r.Analyzer
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     store,
		}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	return findings, nil
}
