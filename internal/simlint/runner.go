package simlint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one post-suppression diagnostic, positioned for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Severity Severity
	Message  string
}

// String renders the finding in the conventional path:line:col form.
// Warnings carry an explicit marker; errors stay in the historical format.
func (f Finding) String() string {
	if f.Severity == SevWarning {
		return fmt.Sprintf("%s: [%s] warning: %s", f.Pos, f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// DirectiveAnalyzer is the pseudo-analyzer name under which directive
// hygiene violations (missing reason, unknown analyzer, suppressing nothing)
// are reported.
const DirectiveAnalyzer = "directive"

// Run executes the analyzers over one package and returns the surviving
// findings: raw diagnostics minus valid suppressions, plus directive-hygiene
// diagnostics. sim marks the package as under the determinism contract
// (drivers pass IsSimPackage(pkg.Path); fixture tests force it). Outside it
// no analyzer runs, so the package needs no type information (Loader.Parse),
// and every directive it carries is reported: it names no analyzer, gives no
// reason, or suppresses nothing.
func Run(pkg *Package, analyzers []*Analyzer, sim bool) ([]Finding, error) {
	var diags []Diagnostic
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		if !sim {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("simlint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}

	directives := parseDirectives(pkg.Fset, pkg.Files)
	var out []Finding
	for _, d := range diags {
		line := pkg.Fset.Position(d.Pos).Line
		suppressed := false
		for _, dir := range directives {
			if dir.matches(d.Analyzer, line) {
				dir.used = true
				if dir.reason != "" {
					suppressed = true
				}
				// A reasonless directive is "used" (so it is not
				// double-reported as suppressing nothing) but does
				// not suppress: the reason is mandatory.
			}
		}
		if !suppressed {
			out = append(out, Finding{Analyzer: d.Analyzer, Pos: pkg.Fset.Position(d.Pos), Severity: d.Severity, Message: d.Message})
		}
	}
	for _, dir := range directives {
		switch {
		case dir.reason == "":
			out = append(out, Finding{
				Analyzer: DirectiveAnalyzer,
				Pos:      pkg.Fset.Position(dir.pos),
				Message:  fmt.Sprintf("simlint:allow %s has no reason; the reason is mandatory", dir.analyzer),
			})
		case !exists(dir.analyzer):
			out = append(out, Finding{
				Analyzer: DirectiveAnalyzer,
				Pos:      pkg.Fset.Position(dir.pos),
				Message:  fmt.Sprintf("simlint:allow %s names no analyzer; delete the directive or fix the name", dir.analyzer),
			})
		case !known[dir.analyzer]:
			// A directive for an analyzer that did not run this pass
			// (e.g. fixture tests run one analyzer at a time) cannot be
			// judged used or unused; leave it alone.
		case !dir.used:
			out = append(out, Finding{
				Analyzer: DirectiveAnalyzer,
				Pos:      pkg.Fset.Position(dir.pos),
				Message:  fmt.Sprintf("simlint:allow %s suppresses nothing; delete the stale directive", dir.analyzer),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// exists reports whether a directive's analyzer name is one simlint has:
// a member of All() or the directive pseudo-analyzer.
func exists(name string) bool {
	if name == DirectiveAnalyzer {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}
