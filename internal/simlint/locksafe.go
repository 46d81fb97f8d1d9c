package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Locksafe enforces the concurrency half of the determinism contract in sim
// packages:
//
//   - goroutine launches are reported unless the package is the sanctioned
//     sweep worker pool: the simulated cluster is a sequential model, and
//     stray concurrency reorders its events;
//   - sync.Map declarations are reported outside sweep (sweep.Cache is the
//     sanctioned use; its content-keyed entries make the lock-free map
//     invisible to replay order);
//   - a floating-point compound assignment inside a goroutine literal, into
//     a variable declared outside it, is reported everywhere, sweep
//     included and under a locksafe directive too: the goroutines finish in
//     schedule order, and float addition does not associate, so the fold's
//     low bits differ run to run.
//
// A float fold over a map range is maporder's finding (the range body is
// not commutative). A lock copied by value is go vet's copylocks finding,
// which `make lint` reports in every package (DESIGN.md §12).
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc: "flag goroutine launches and sync.Map outside the sanctioned " +
		"sweep pool, and float folds across goroutines, in sim packages",
	Run: runLocksafe,
}

// foldOps are the compound assignments that fold a value into an
// accumulator. For floats none of them associate.
var foldOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func runLocksafe(p *Pass) error {
	sanctioned := sanctionedConcurrency(p.Pkg.Path())
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !sanctioned {
					p.Reportf(n.Pos(),
						"goroutine launch in a sim package; fan out through the sweep worker pool (input-ordered, replay-invisible)")
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					p.reportCapturedFloatFolds(lit)
				}
			case *ast.Field:
				if !sanctioned {
					p.reportSyncMap(n.Type)
				}
			case *ast.ValueSpec:
				if !sanctioned {
					p.reportSyncMap(n.Type)
				}
			}
			return true
		})
	}
	return nil
}

// reportCapturedFloatFolds reports float compound assignments in a goroutine
// literal into variables declared outside it; a goroutine-local accumulator
// folds in its own deterministic order.
func (p *Pass) reportCapturedFloatFolds(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !foldOps[as.Tok] || len(as.Lhs) != 1 || !p.isFloat(as.Lhs[0]) {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.identObj(id); obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			p.Reportf(as.Pos(), "floating-point accumulation across goroutines folds in schedule order; reduce per-worker results in input order instead")
		}
		return true
	})
}

// isFloat reports whether the expression has a floating-point type.
func (p *Pass) isFloat(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// reportSyncMap reports a declared type that is sync.Map or contains one.
func (p *Pass) reportSyncMap(te ast.Expr) {
	if te != nil && containsSyncMap(p.typeOf(te), make(map[types.Type]bool)) {
		p.Reportf(te.Pos(), "sync.Map iterates in nondeterministic order; use an ordered structure (sweep.Cache is the sanctioned use)")
	}
}

// containsSyncMap reports whether t is, or transitively contains (through
// struct fields and array elements), a sync.Map.
func containsSyncMap(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Map" {
			return true
		}
		return containsSyncMap(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsSyncMap(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsSyncMap(t.Elem(), seen)
	}
	return false
}
