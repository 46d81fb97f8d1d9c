package simlint

import (
	"go/ast"
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
//     invisible to replay order).
//
// A lock copied by value is go vet's copylocks finding, which `make lint`
// reports in every package (DESIGN.md §12).
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc: "flag goroutine launches and sync.Map outside the sanctioned " +
		"sweep pool in sim packages",
	Run: runLocksafe,
}

func runLocksafe(p *Pass) error {
	if !p.Sim || sanctionedConcurrency(p.Pkg.Path()) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(),
					"goroutine launch in a sim package; fan out through the sweep worker pool (input-ordered, replay-invisible)")
			case *ast.Field:
				p.reportSyncMap(n.Type)
			case *ast.ValueSpec:
				p.reportSyncMap(n.Type)
			}
			return true
		})
	}
	return nil
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
