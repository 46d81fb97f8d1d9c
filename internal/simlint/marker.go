package simlint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// A contract marker opts a function into the hotalloc analyzer:
//
//	//simlint:hotpath
//	func (e *Engine) Step() bool { ... }          // hotalloc: may not allocate
//
// A marker goes in the declaration's doc comment (any line of it) or on the
// line directly above the declaration. A marker that attaches to nothing is
// itself a diagnostic — contracts must not silently fall off when code moves.
const hotpathPrefix = "simlint:hotpath"

// marker is one parsed contract-marker comment.
type marker struct {
	pos  token.Pos
	file string
	line int
	used bool
}

// parseMarkers extracts every hotpath marker comment. The prefix must be
// followed by end-of-comment or whitespace, so it does not also match a
// hypothetical longer marker name.
func parseMarkers(fset *token.FileSet, files []*ast.File) []*marker {
	var out []*marker
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, hotpathPrefix) {
					continue
				}
				rest := text[len(hotpathPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				p := fset.Position(c.Pos())
				out = append(out, &marker{
					pos:  c.Pos(),
					file: p.Filename,
					line: p.Line,
				})
			}
		}
	}
	return out
}

// attachesTo reports whether the marker belongs to a declaration with the
// given doc group and position: the marker sits inside the doc group or on
// the line directly above the declaration.
func (m *marker) attachesTo(fset *token.FileSet, doc *ast.CommentGroup, declPos token.Pos) bool {
	if doc != nil && m.pos >= doc.Pos() && m.pos <= doc.End() {
		return true
	}
	p := fset.Position(declPos)
	return m.file == p.Filename && m.line == p.Line-1
}

// MarkedHotpaths parses the package directory (syntax only, non-test files)
// and returns the sorted display names of every function carrying a hotpath
// marker. Tests use it to cross-check that each marked function is measured
// by an AllocsPerRun budget (TestHotpathMarkersHaveAllocBudgets).
func MarkedHotpaths(dir string) ([]string, error) {
	names, err := GoFiles(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	markers := parseMarkers(fset, files)
	var out []string
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, m := range markers {
				if m.attachesTo(fset, fn.Doc, fn.Pos()) {
					out = append(out, funcDisplayName(fn))
					break
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// funcDisplayName renders a FuncDecl as it appears in diagnostics and in the
// KnownHotPaths registry: "Name" for functions, "Recv.Name" for methods
// (pointer receivers spelled without the star).
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
