package simlint

import (
	"go/ast"
	"go/types"
)

// Hotalloc enforces the zero-allocation contract on hot-path functions. A
// function opts in with a //simlint:hotpath marker on its declaration; the
// steady-state kernel paths every replay runs through (KnownHotPaths) must
// carry the marker, so deleting an annotation does not silently drop the
// contract. Inside a marked function the analyzer flags the constructs that
// reach the allocator:
//
//   - escaping composite literals (&T{...}), new(T), and slice/map literals
//   - make, and append that does not feed back into the slice it grows
//     (self-append into a struct field reuses arena capacity and passes;
//     self-append into a function-local slice is a warning — the backing
//     array is fresh per call unless the caller threads it through)
//   - func literals that capture variables (each closure is a heap object);
//     capture-free literals compile to static functions and pass
//   - fmt calls and non-constant string concatenation (interface boxing and
//     string building allocate)
//   - defer inside a loop (loop defers heap-allocate their records)
//
// Subtrees of panic(...) arguments are exempt: panics are cold paths and the
// kernel deliberately builds rich messages there. The static checks are a
// first line; the testing.AllocsPerRun budgets in each package remain the
// authoritative measurement (see TestHotpathMarkersHaveAllocBudgets).
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//simlint:hotpath functions may not allocate (composite literals, make/append, closures, fmt, loop defers)",
	Run:  runHotalloc,
}

// KnownHotPaths pins the steady-state kernel paths to the hotpath contract
// by import path and display name ("Func" or "Recv.Method"): these functions
// must exist and must carry a //simlint:hotpath marker. The list names the
// innermost per-event/per-probe entry points; the rest of the marked set
// (sift helpers, ready-set maintenance, attempt lifecycle) hangs off these.
var KnownHotPaths = map[string][]string{
	"hybridmr/internal/simclock":  {"Engine.At", "Engine.After", "Engine.Step"},
	"hybridmr/internal/mapreduce": {"Simulator.dispatch", "Simulator.touch"},
	"hybridmr/internal/stats":     {"LogUniformVar.Sample", "RNG.Float64"},
	"hybridmr/internal/sweep":     {"KeyFor"},
}

func runHotalloc(p *Pass) error {
	markers := parseMarkers(p.Fset, p.Files)
	marked := make(map[*ast.FuncDecl]bool)
	byName := make(map[string]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := funcDisplayName(fn)
			if byName[name] == nil {
				byName[name] = fn
			}
			for _, m := range markers {
				if m.attachesTo(p.Fset, fn.Doc, fn.Pos()) {
					m.used = true
					marked[fn] = true
				}
			}
		}
	}
	for _, m := range markers {
		if !m.used {
			p.Reportf(m.pos, "simlint:hotpath marker attaches to no function declaration; move it onto the function's doc comment or delete it")
		}
	}
	for _, name := range KnownHotPaths[p.Pkg.Path()] {
		fn, ok := byName[name]
		if !ok {
			p.Reportf(p.Files[0].Package, "KnownHotPaths lists %s.%s but the package declares no such function; update the registry in internal/simlint/hotalloc.go", p.Pkg.Path(), name)
			continue
		}
		if !marked[fn] {
			p.Reportf(fn.Pos(), "%s is a known steady-state hot path (simlint.KnownHotPaths) and must carry a //simlint:hotpath marker", name)
		}
	}
	for fn := range marked {
		if fn.Body != nil {
			checkHotFunc(p, fn)
		}
	}
	return nil
}

// checkHotFunc walks one marked function body and reports every construct
// that allocates on the steady-state path.
func checkHotFunc(p *Pass, fn *ast.FuncDecl) {
	// selfAppends records append CallExprs consumed by a self-append
	// assignment (x = append(x, ...)); the generic walk skips them.
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !p.isBuiltin(call, "append") || len(call.Args) == 0 {
			return true
		}
		lhs, arg := exprPath(as.Lhs[0]), exprPath(call.Args[0])
		if lhs == "" || lhs != arg {
			return true
		}
		selfAppends[call] = true
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			// Self-append into a function-local slice: the backing array is
			// fresh each call, so growth allocates every time. Warning, not
			// error — the enclosing AllocsPerRun budget is authoritative.
			if obj := p.identObj(id); obj != nil && obj.Parent() != p.Pkg.Scope() {
				p.Warnf(call.Pos(), "self-append into function-local slice %s: its backing array is fresh per call, so growth allocates; reuse a field- or caller-owned buffer", id.Name)
			}
		}
		return true
	})

	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(p, n) {
				// Cold path: panic messages may allocate freely.
				return
			}
			switch {
			case p.isBuiltin(n, "make"):
				p.Reportf(n.Pos(), "make allocates on the hot path; reuse a capacity-retaining buffer (freelist or arena field)")
			case p.isBuiltin(n, "new"):
				p.Reportf(n.Pos(), "new allocates on the hot path; reuse pooled objects")
			case p.isBuiltin(n, "append"):
				if !selfAppends[n] {
					p.Reportf(n.Pos(), "append result does not feed back into the slice it grows; on the hot path append must reuse capacity (x = append(x, ...))")
				}
			default:
				if obj := p.calleeObj(n); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
					p.Reportf(n.Pos(), "fmt.%s boxes its operands into interfaces and allocates; hot paths must not format", obj.Name())
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.Reportf(n.Pos(), "&composite literal escapes to the heap; reuse a pooled object (freelist miss paths need a //simlint:allow hotalloc directive)")
					// The literal is already diagnosed; don't re-flag it below.
					walkChildren(p, ast.Unparen(n.X).(*ast.CompositeLit), loopDepth, walk)
					return
				}
			}
		case *ast.CompositeLit:
			if t := p.typeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(n.Pos(), "slice/map literal allocates its backing store on the hot path; reuse a capacity-retaining buffer")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := p.TypesInfo.Types[ast.Expr(n)]; ok && tv.Value == nil {
					if t, ok := tv.Type.Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
						p.Reportf(n.Pos(), "string concatenation allocates the joined string; hot paths must not build strings")
					}
				}
			}
		case *ast.FuncLit:
			if name := closureCapture(p, n); name != "" {
				p.Reportf(n.Pos(), "func literal captures %s and allocates a closure per evaluation; use a pooled object's bound method or a capture-free literal", name)
			}
		case *ast.DeferStmt:
			if loopDepth > 0 {
				p.Reportf(n.Pos(), "defer inside a loop heap-allocates its record on every iteration; hoist it out of the loop")
			}
		case *ast.ForStmt, *ast.RangeStmt:
			walkChildren(p, n, loopDepth+1, walk)
			return
		}
		walkChildren(p, n, loopDepth, walk)
	}
	walk(fn.Body, 0)
}

// walkChildren applies walk to every direct child of n, threading loopDepth.
func walkChildren(p *Pass, n ast.Node, loopDepth int, walk func(ast.Node, int)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		walk(c, loopDepth)
		return false
	})
}

// isBuiltin reports whether the call invokes the named predeclared builtin.
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := p.TypesInfo.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// isPanicCall reports whether the call is the predeclared panic.
func isPanicCall(p *Pass, call *ast.CallExpr) bool {
	return p.isBuiltin(call, "panic")
}

// closureCapture returns the name of a variable the func literal captures
// from an enclosing function scope ("" when capture-free). Package-level
// objects are not captures — referencing them costs nothing.
func closureCapture(p *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == p.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		captured = v.Name()
		return false
	})
	return captured
}

// exprPath renders an lvalue-ish expression as a dotted path ("x", "s.buf")
// for self-append comparison; "" when the expression is not a plain
// ident/selector chain.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}
