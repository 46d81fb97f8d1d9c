package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"hybridmr/internal/simlint"
)

// TestTreeIsClean is the acceptance gate: the linter must exit 0 with zero
// unsuppressed findings over the whole module, warnings included. Any newly
// introduced wall-clock read, order-sensitive map range, float fold across
// goroutines, stray goroutine or sync.Map, select, or reasonless, stale or
// unknown directive fails this test.
func TestTreeIsClean(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"../../..."}, &buf, "", false)
	if err != nil {
		t.Fatalf("simlint: %v", err)
	}
	if code != 0 {
		t.Fatalf("simlint found issues:\n%s", buf.String())
	}
	if out := buf.String(); strings.Contains(out, "warning:") {
		t.Fatalf("simlint warnings must be fixed or suppressed before commit:\n%s", out)
	}
}

// TestDirectivesOutsideSimPackages pins the parse-only path: a package
// outside simlint.SimPackages is not type-checked (the fixture does not
// compile), yet each of its directives is reported, because nothing outside
// the contract can be suppressed.
func TestDirectivesOutsideSimPackages(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"testdata/nonsim"}, &buf, "", false)
	if err != nil {
		t.Fatalf("simlint: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	out := buf.String()
	for _, want := range []string{
		"nonsim.go:10:20: [directive] simlint:allow walltime suppresses nothing",
		"nonsim.go:14:23: [directive] simlint:allow nosuch names no analyzer",
		"nonsim.go:17:1: [directive] simlint:allow walltime has no reason",
		"simlint: 3 error(s), 0 warning(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestJSONAndGithubOutput exercises the CI output paths against the live
// tree: the JSON report must parse and agree with the clean gate, and the
// -github mode must not emit workflow commands when there is nothing to
// annotate.
func TestJSONAndGithubOutput(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"../../internal/simclock"}, &buf, "-", true)
	if err != nil {
		t.Fatalf("simlint: %v", err)
	}
	if code != 0 {
		t.Fatalf("simclock should be clean:\n%s", buf.String())
	}
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("-json - output does not parse: %v\n%s", err, buf.String())
	}
	if report.Module != "hybridmr" {
		t.Errorf("report.Module = %q, want hybridmr", report.Module)
	}
	if report.Errors != 0 || report.Warnings != 0 || len(report.Findings) != 0 {
		t.Errorf("clean run reported findings: %+v", report)
	}
	if strings.Contains(buf.String(), "::error") || strings.Contains(buf.String(), "::warning") {
		t.Errorf("clean run emitted workflow commands:\n%s", buf.String())
	}
}

// TestGithubAnnotation checks the workflow-command rendering, including the
// %-encoding of newlines the Actions toolkit requires.
func TestGithubAnnotation(t *testing.T) {
	f := simlint.Finding{
		Analyzer: "walltime",
		Pos:      token.Position{Filename: "/mod/internal/x/y.go", Line: 7, Column: 3},
		Message:  "bad\nthing with 100%",
	}
	got := githubAnnotation("/mod", f)
	want := "::error file=internal/x/y.go,line=7,col=3,title=simlint/walltime::bad%0Athing with 100%25"
	if got != want {
		t.Errorf("githubAnnotation:\n got %q\nwant %q", got, want)
	}
	f.Severity = simlint.SevWarning
	if got := githubAnnotation("/mod", f); !strings.HasPrefix(got, "::warning ") {
		t.Errorf("warning severity rendered as %q", got)
	}
}

func TestImportPath(t *testing.T) {
	cases := []struct {
		dir  string
		want string
	}{
		{"/mod", "example.com/m"},
		{"/mod/internal/core", "example.com/m/internal/core"},
	}
	for _, c := range cases {
		got, err := importPath("/mod", "example.com/m", c.dir)
		if err != nil {
			t.Fatalf("importPath(%q): %v", c.dir, err)
		}
		if got != c.want {
			t.Errorf("importPath(%q) = %q, want %q", c.dir, got, c.want)
		}
	}
	if _, err := importPath("/mod", "example.com/m", "/elsewhere"); err == nil ||
		!strings.Contains(err.Error(), "outside module") {
		t.Errorf("importPath outside module: got err %v", err)
	}
}
