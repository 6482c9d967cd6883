package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives are magic comments of the form //gflink:<name> that
// suppress a finding at the statement they annotate. A directive
// applies to its own line and to the line directly below it, so both
// styles work:
//
//	//gflink:allow-go -- host-side fan-out, one isolated clock per goroutine
//	go func() { ... }()
//
//	go fn() //gflink:allow-go
type directiveIndex map[string]map[int]bool // directive name -> lines present

// DirectiveIndex scans a file's comments for //gflink: directives.
func DirectiveIndex(fset *token.FileSet, f *ast.File) map[string]map[int]bool {
	idx := make(directiveIndex)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			rest, ok := strings.CutPrefix(text, "//gflink:")
			if !ok {
				continue
			}
			name := rest
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name = rest[:i]
			}
			if name == "" {
				continue
			}
			if idx[name] == nil {
				idx[name] = make(map[int]bool)
			}
			idx[name][fset.Position(c.Pos()).Line] = true
		}
	}
	return idx
}

// DirectiveAt reports whether the named directive annotates pos: the
// directive comment sits on the same line or the line above.
func DirectiveAt(idx map[string]map[int]bool, fset *token.FileSet, name string, pos token.Pos) bool {
	lines := idx[name]
	if lines == nil {
		return false
	}
	line := fset.Position(pos).Line
	return lines[line] || lines[line-1]
}
