package simlint

import "go/ast"

// Selectorder rejects select statements in sim packages. When several cases
// are ready, select picks one uniformly at pseudo-random (and with a default
// case the choice races the scheduler), so any select in simulation code is
// a nondeterminism by specification — not merely by accident. Sim packages
// are single-threaded by contract (see locksafe); channel fan-in belongs in
// the sweep pool, which collects results in input order without select.
var Selectorder = &Analyzer{
	Name: "selectorder",
	Doc: "flag select statements in sim packages; case choice among ready " +
		"channels is pseudo-random by spec",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectStmt); ok {
					p.Reportf(sel.Pos(),
						"select chooses among ready cases pseudo-randomly; deterministic sim code must not select")
				}
				return true
			})
		}
		return nil
	},
}
