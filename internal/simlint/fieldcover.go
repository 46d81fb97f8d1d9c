package simlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Fieldcover enforces exhaustive field coverage on structs marked
//
//	//simlint:exhaustive Reset,recycle
//	type ReplayState struct { ... }
//
// Every field of the marked struct must be mentioned in at least one of the
// listed functions (union semantics: a reset split across recycle/reinit
// passes as long as each field appears somewhere). "Mentioned" means a
// selector on a value of the struct type (st.field), a key in a composite
// literal of the type, or a whole-value write (x = T{...} or positional
// literal), in any same-package function with a listed name — reset logic
// for pooled records often lives on the owning container, not the record.
//
// This is the lint-time half of the byte-for-byte Reset() and
// every-field-set contracts (DESIGN §11, §12): adding a field to
// mapreduce.ReplayState without resetting it, or to sweep.Key without
// setting it in KeyFor, fails make lint at the new field's line. A
// field that deliberately survives (a freelist, a rebound closure) carries a
// //simlint:allow fieldcover directive with the reason.
var Fieldcover = &Analyzer{
	Name: "fieldcover",
	Doc:  "//simlint:exhaustive structs must mention every field in the listed reset/hash functions",
	Run:  runFieldcover,
}

func runFieldcover(p *Pass) error {
	markers := parseMarkers(p.Fset, p.Files, exhaustivePrefix)
	if len(markers) == 0 {
		return nil
	}
	// Index every function declaration by bare name; coverage may live in
	// any of them (methods of other types included).
	funcs := make(map[string][]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				funcs[fn.Name.Name] = append(funcs[fn.Name.Name], fn)
			}
		}
	}

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				declPos := gd.Pos()
				if len(gd.Specs) > 1 {
					declPos = ts.Pos()
				}
				for _, m := range markers {
					if !m.attachesTo(p.Fset, doc, declPos) {
						continue
					}
					m.used = true
					checkExhaustive(p, ts, m, funcs)
				}
			}
		}
	}
	for _, m := range markers {
		if !m.used {
			p.Reportf(m.pos, "simlint:exhaustive marker attaches to no type declaration; move it onto the struct's doc comment or delete it")
		}
	}
	return nil
}

// checkExhaustive verifies one marked struct against its listed functions.
func checkExhaustive(p *Pass, ts *ast.TypeSpec, m *marker, funcs map[string][]*ast.FuncDecl) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		p.Reportf(m.pos, "simlint:exhaustive applies to struct types; %s is not a struct", ts.Name.Name)
		return
	}
	if m.rest == "" {
		p.Reportf(m.pos, "simlint:exhaustive needs a comma-separated function list (e.g. //simlint:exhaustive Reset,recycle)")
		return
	}
	obj := p.TypesInfo.Defs[ts.Name]
	if obj == nil {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}

	covered := make(map[string]bool)
	for _, name := range strings.Split(m.rest, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		decls := funcs[name]
		if len(decls) == 0 {
			p.Reportf(m.pos, "simlint:exhaustive on %s lists %s, but the package declares no such function", ts.Name.Name, name)
			continue
		}
		for _, fn := range decls {
			collectMentions(p, fn, named, covered)
		}
	}

	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			// Embedded field: its name is the embedded type's name.
			name := embeddedName(field.Type)
			if name != "" && !covered[name] {
				p.Reportf(field.Pos(), "embedded field %s of %s is not mentioned in %s (//simlint:exhaustive)", name, ts.Name.Name, m.rest)
			}
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				continue
			}
			if !covered[id.Name] {
				p.Reportf(id.Pos(), "field %s of %s is not mentioned in %s (//simlint:exhaustive); reset/hash it there, or carry a //simlint:allow fieldcover directive explaining why it survives", id.Name, ts.Name.Name, m.rest)
			}
		}
	}
}

// collectMentions records every field of named that fn's body mentions.
func collectMentions(p *Pass, fn *ast.FuncDecl, named *types.Named, covered map[string]bool) {
	if fn.Body == nil {
		return
	}
	allFields := func() {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			covered[st.Field(i).Name()] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isNamedOrPtr(p.typeOf(n.X), named) {
				covered[n.Sel.Name] = true
			}
		case *ast.CompositeLit:
			if !isNamedOrPtr(p.typeOf(ast.Expr(n)), named) {
				return true
			}
			if len(n.Elts) == 0 {
				// T{} written somewhere in a reset function is a whole-value
				// zeroing (e.g. *e = Engine{}): every field covered.
				allFields()
				return true
			}
			keyed := false
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					keyed = true
					if id, ok := kv.Key.(*ast.Ident); ok {
						covered[id.Name] = true
					}
				}
			}
			if !keyed {
				// Positional literal: the compiler already requires every
				// field, so all are covered by construction.
				allFields()
			}
		}
		return true
	})
}

// isNamedOrPtr reports whether t is the named type or a pointer to it.
func isNamedOrPtr(t types.Type, named *types.Named) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// embeddedName returns the bare name of an embedded field's type expression.
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
