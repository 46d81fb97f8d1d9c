// Command simlint runs the repo's determinism analyzers (internal/simlint)
// over Go packages and exits non-zero on any error-severity finding.
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -json findings.json -github ./...
//
// Patterns are directories relative to the current working directory; a
// trailing /... walks recursively (testdata, hidden and underscore
// directories are skipped, as are directories with no non-test Go files).
// With no arguments it lints ./... — from the repo root, the whole module.
//
// -json FILE writes the findings as a JSON document ("-" for stdout) for
// machine consumption; -github additionally emits GitHub Actions workflow
// commands (::error / ::warning) so findings surface as inline annotations
// on pull requests.
//
// The analyzers check the packages listed in simlint.SimPackages, which are
// under the determinism contract; only those are type-checked. Every other
// package is parsed for its suppression directives, which must still name
// an analyzer, give a reason and suppress something — outside the contract
// nothing can be suppressed, so each one there is a finding.
// Suppressions use
//
//	//simlint:allow <analyzer> <reason>
//
// on the offending line or the line above; the reason is mandatory and
// stale directives are themselves findings.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hybridmr/internal/simlint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simlint: ")
	jsonPath := flag.String("json", "", "write findings as JSON to `file` (\"-\" for stdout)")
	github := flag.Bool("github", false, "emit GitHub Actions ::error/::warning workflow commands")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-json file] [-github] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range simlint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	code, err := run(patterns, os.Stdout, *jsonPath, *github)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(code)
}

// jsonFinding is one finding in the -json report. Paths are relative to the
// module root so CI annotations resolve against the checkout.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Module   string        `json:"module"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Findings []jsonFinding `json:"findings"`
}

// run lints the packages matched by the patterns, prints findings to out and
// returns the exit code (0 clean or warnings only, 1 error findings).
func run(patterns []string, out io.Writer, jsonPath string, github bool) (int, error) {
	modRoot, modPath, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	dirs, err := expand(patterns)
	if err != nil {
		return 0, err
	}
	loader := simlint.NewLoader()
	report := jsonReport{Module: modPath, Findings: []jsonFinding{}}
	for _, dir := range dirs {
		path, err := importPath(modRoot, modPath, dir)
		if err != nil {
			return 0, err
		}
		// Only packages under the determinism contract are type-checked;
		// elsewhere no analyzer runs and a parse finds every directive.
		sim := simlint.IsSimPackage(path)
		load := loader.Parse
		if sim {
			load = loader.Load
		}
		pkg, err := load(dir, path)
		if err != nil {
			return 0, err
		}
		findings, err := simlint.Run(pkg, simlint.All(), sim)
		if err != nil {
			return 0, err
		}
		for _, f := range findings {
			fmt.Fprintln(out, f)
			if github {
				fmt.Fprintln(out, githubAnnotation(modRoot, f))
			}
			file := f.Pos.Filename
			if rel, relErr := filepath.Rel(modRoot, file); relErr == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			report.Findings = append(report.Findings, jsonFinding{
				File:     file,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Severity: f.Severity.String(),
				Message:  f.Message,
			})
			if f.Severity == simlint.SevWarning {
				report.Warnings++
			} else {
				report.Errors++
			}
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, out, report); err != nil {
			return 0, err
		}
	}
	if report.Errors+report.Warnings > 0 {
		fmt.Fprintf(out, "simlint: %d error(s), %d warning(s)\n", report.Errors, report.Warnings)
	}
	if report.Errors > 0 {
		return 1, nil
	}
	return 0, nil
}

// githubAnnotation renders a finding as a GitHub Actions workflow command so
// the Actions runner turns it into an inline PR annotation.
func githubAnnotation(modRoot string, f simlint.Finding) string {
	level := "error"
	if f.Severity == simlint.SevWarning {
		level = "warning"
	}
	file := f.Pos.Filename
	if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	// Workflow-command data is %-encoded per the Actions toolkit rules.
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(f.Message)
	return fmt.Sprintf("::%s file=%s,line=%d,col=%d,title=simlint/%s::%s",
		level, file, f.Pos.Line, f.Pos.Column, f.Analyzer, esc)
}

// writeJSON writes the report to the named file, or to out when the name is
// "-".
func writeJSON(path string, out io.Writer, report jsonReport) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = out.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// moduleRoot walks up from the working directory to the enclosing go.mod and
// returns its directory and module path.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		mod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(mod); statErr == nil {
			module, err = modulePath(mod)
			return dir, module, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(file string) (string, error) {
	f, err := os.Open(file)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module declaration", file)
}

// importPath maps a package directory to its import path within the module.
func importPath(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// expand resolves package patterns to package directories. A pattern ending
// in /... walks its base recursively, keeping directories that contain
// non-test Go files and skipping testdata, hidden and underscore directories.
func expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			base, recursive = ".", true
		}
		if base == "" {
			base = "."
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := simlint.GoFiles(path)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
