package simlint

import (
	"go/ast"
	"go/types"
)

// wallFuncs are the package time functions that read or wait on the wall
// clock. Duration arithmetic and formatting are fine — sim packages traffic
// in time.Duration everywhere — but the current instant must come from
// simclock.Engine.Now, never the host.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// Walltime rejects wall-clock reads in sim packages. A replay that consults
// the host clock is not a pure function of its inputs: the same trace would
// schedule, hash or report differently run to run. Sanctioned wall-clock
// measurement (the real-execution engine's phase counters, the resilience
// report's events/sec footer) carries an explicit //simlint:allow.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "flag time.Now/Since/Sleep and friends in sim packages; " +
		"sim time comes only from the simclock engine",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := p.calleeObj(call)
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				// Methods are fine: t.After(u) compares instants already
				// held; only the package-level entry points read the clock.
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if wallFuncs[obj.Name()] {
					p.Reportf(call.Pos(),
						"time.%s reads the wall clock; sim time comes only from simclock.Engine.Now", obj.Name())
				}
				return true
			})
		}
		return nil
	},
}
