package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder rejects order-sensitive iteration over maps in sim packages. Map
// iteration order is deliberately randomized by the runtime, so a range
// whose body appends to a slice, writes output, feeds a hash or schedules
// events produces a different result every run — the classic source of
// run-to-run divergence that the (at, seq) event order and the golden
// snapshots exist to prevent.
//
// Two idioms pass without a directive:
//
//   - a commutative body: keyed writes into another map, integer counter
//     updates, delete — operations whose result is independent of visit
//     order;
//   - the sorted-keys idiom: a body that only collects the keys into a
//     slice which the same function then sorts (sort.Strings/Slice/...).
//
// Anything else needs a //simlint:allow maporder <reason>.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive range over maps in sim packages; " +
		"iterate sorted keys or keep the body commutative",
	Run: runMaporder,
}

func runMaporder(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !p.isMapRange(rs) {
				return true
			}
			if p.commutativeBody(rs.Body.List) {
				return true
			}
			if slice := p.keyCollector(rs); slice != nil && p.sortedInFunc(f, rs, slice) {
				return true
			}
			p.Reportf(rs.Pos(),
				"map iteration order is randomized; this range's effect depends on it — iterate sorted keys")
			return true
		})
	}
	return nil
}

// isMapRange reports whether rs ranges over a map value.
func (p *Pass) isMapRange(rs *ast.RangeStmt) bool {
	t := p.typeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// commutativeBody reports whether every statement's effect is independent of
// execution order: keyed map writes, integer counter updates, delete,
// continue, and ifs composed of the same. Floating-point accumulation is
// deliberately NOT commutative here — addition does not associate — so a
// float fold over a map range is reported as an order-sensitive range.
func (p *Pass) commutativeBody(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !p.commutativeStmt(s) {
			return false
		}
	}
	return true
}

func (p *Pass) commutativeStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return p.isInteger(s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ASSIGN:
			for _, lhs := range s.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					return false
				}
				t := p.typeOf(ix.X)
				if t == nil {
					return false
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN:
			return len(s.Lhs) == 1 && p.isInteger(s.Lhs[0])
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil || !p.commutativeBody(s.Body.List) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return p.commutativeBody(e.List)
		case *ast.IfStmt:
			return p.commutativeStmt(e)
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.TypesInfo.Uses[id]
		b, ok := obj.(*types.Builtin)
		return ok && b.Name() == "delete"
	}
	return false
}

// isInteger reports whether the expression has an integer type.
func (p *Pass) isInteger(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// keyCollector matches the first half of the sorted-keys idiom: a body that
// is exactly `s = append(s, k)` for the range key k, returning the object of
// s (nil when the body is anything else).
func (p *Pass) keyCollector(rs *ast.RangeStmt) types.Object {
	if len(rs.Body.List) != 1 {
		return nil
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	dst, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := p.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || p.identObj(arg0) == nil || p.identObj(arg0) != p.identObj(dst) {
		return nil
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	arg1, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || p.identObj(arg1) == nil || p.identObj(arg1) != p.identObj(key) {
		return nil
	}
	return p.identObj(dst)
}

// sortFuncs are the sort-package entry points that establish a deterministic
// order over a collected key slice.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
}

// sortedInFunc reports whether the function enclosing rs also passes the
// collected slice to a sort call — completing the sorted-keys idiom.
func (p *Pass) sortedInFunc(file *ast.File, rs *ast.RangeStmt, slice types.Object) bool {
	fn := enclosingFunc(file, rs.Pos())
	if fn == nil {
		fn = file
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || found {
			return !found
		}
		obj := p.calleeObj(call)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sort" || !sortFuncs[obj.Name()] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && p.identObj(id) == slice {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFunc returns the innermost function declaration or literal
// containing pos, or nil at file scope.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n // innermost wins: Inspect descends outer-to-inner
			}
		}
		return true
	})
	return best
}
