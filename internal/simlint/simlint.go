// Package simlint is the repo's determinism-and-concurrency linter: a suite
// of static analyzers that enforce the simulator's bit-for-bit replay
// contract at analysis time instead of hoping the golden tests catch a
// violation after it ships. Every result this reproduction reports — the
// cross points, Algorithm 1's routing, the FB-2009 trace comparison — rests
// on the invariant that a replay is a pure function of (jobs, calibration,
// fault schedule, seeds); the analyzers reject the ways Go code breaks that
// which no runtime gate reliably catches: wall-clock reads,
// map-iteration-order dependence, order-sensitive float folds, stray
// goroutines and sync.Map, and select. What a runtime gate already catches
// (global math/rand draws, copied locks, hot-path allocations) is left to
// that gate; DESIGN.md §12 records the mutation study behind the split.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library only:
// this build environment is offline and vendors no third-party modules, so
// packages are loaded with go/parser and type-checked with go/types through
// the source importer (see load.go). The trade-off is documented in
// DESIGN.md §8.
//
// A diagnostic can be suppressed — with a mandatory reason — by a directive
// on the offending line or the line above it:
//
//	start := time.Now() //simlint:allow walltime measures real wall time, not sim time
//
// A directive without a reason, or one that suppresses nothing, is itself a
// diagnostic: suppressions must stay auditable and alive.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. It mirrors the x/tools analysis
// shape so the analyzers port directly if the dependency ever becomes
// available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow directives.
	Name string
	// Doc is the one-paragraph description printed by `simlint -help`.
	Doc string
	// Run reports the analyzer's diagnostics for one package via
	// Pass.Reportf.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Severity classifies a finding in cmd/simlint's text, -json and -github
// output. Every analyzer reports errors, which fail the run; the warning
// level is kept so that output format stays stable, but no analyzer emits
// it. The in-repo TestTreeIsClean gate requires zero findings of either.
type Severity int

const (
	SevError Severity = iota
	SevWarning
)

// String renders the severity as it appears in findings and JSON output.
func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one reported finding, before suppression filtering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Severity Severity
	Message  string
}

// Reportf records an error-severity diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Severity: SevError,
		Message:  fmt.Sprintf(format, args...),
	})
}

// typeOf returns the type of e, or nil when the type checker recorded none.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// calleeObj resolves the object a call expression invokes (package function
// or method), or nil for builtins, conversions and indirect calls.
func (p *Pass) calleeObj(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[fn.Sel]
	}
	return nil
}

// identObj resolves an identifier to its object, whether used or defined.
func (p *Pass) identObj(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Defs[id]
}

// SimPackages lists the import paths under the determinism contract: the
// simulation kernel and everything whose output feeds a golden snapshot or a
// memoized cache entry. internal/engine is included — it executes real
// MapReduce with sanctioned worker pools and wall-clock counters, and each
// sanctioned use carries an explicit //simlint:allow directive so the
// exceptions stay enumerable.
var SimPackages = []string{
	"hybridmr/internal/simclock",
	"hybridmr/internal/mapreduce",
	"hybridmr/internal/engine",
	"hybridmr/internal/faults",
	"hybridmr/internal/sweep",
	"hybridmr/internal/core",
	"hybridmr/internal/figures",
	"hybridmr/internal/obs",
	"hybridmr/internal/chaos",
}

// IsSimPackage reports whether the import path is under the determinism
// contract (the listed packages and their subpackages).
func IsSimPackage(path string) bool {
	for _, p := range SimPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// sanctionedConcurrency reports whether the package may launch goroutines
// and use sync.Map: internal/sweep is the one sanctioned worker pool (its
// input-ordered fan-out and content-keyed cache are what make parallelism
// invisible to the replay contract).
func sanctionedConcurrency(path string) bool {
	return path == "hybridmr/internal/sweep"
}
