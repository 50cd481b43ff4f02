// Command nrlint runs the NR-specific static analyzers (internal/analysis)
// over package directories:
//
//	nrlint [-only lockorder,noalloc] [-v] [-json] [-sarif out.sarif] ./...
//
// Patterns are directories; a trailing /... walks recursively (testdata,
// vendor, and dot-directories are skipped, as the go tool does). With no
// patterns, ./... is assumed.
//
// Loading is serial (packages type-check against each other and share the
// loader's cache); analysis is parallel per package, which is safe because
// the module-wide call graph is built once up front and the analyzers'
// lazily-computed global facts are mutex-guarded. -v prints per-analyzer
// wall-clock totals. -json writes diagnostics as a JSON array to stdout
// instead of text; -sarif additionally writes a SARIF 2.1.0 log to the given
// file ("-" for stdout) for code-scanning upload.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 a package failed to load.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/build"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/asplos17/nr/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	verbose := flag.Bool("v", false, "print per-analyzer timing totals to stderr")
	jsonOut := flag.Bool("json", false, "write diagnostics as a JSON array to stdout")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nrlint [-only names] [-v] [-json] [-sarif file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "nrlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nrlint: %v\n", err)
		os.Exit(2)
	}

	// Phase 1: serial load. Later packages type-check against earlier ones
	// through the loader's cache, so this cannot be parallelized naively —
	// and it is dominated by the first package's dependency closure anyway.
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	exit := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			fmt.Fprintf(os.Stderr, "nrlint: %v\n", err)
			exit = 2
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	// Phase 2: parallel per-package analysis. Warm the module-wide call
	// graph once so workers only read it.
	if len(pkgs) > 0 {
		loader.Graph()
	}
	type result struct {
		pkg   *analysis.Package
		diags []analysis.Diagnostic
		err   error
	}
	results := make([]result, len(pkgs))
	timings := make([]map[string]time.Duration, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if *verbose {
				// Per-analyzer runs so each one's cost is attributable.
				t := make(map[string]time.Duration, len(analyzers))
				var all []analysis.Diagnostic
				for _, a := range analyzers {
					start := time.Now()
					diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
					t[a.Name] += time.Since(start)
					if err != nil {
						results[i] = result{pkg: pkg, err: err}
						return
					}
					all = append(all, diags...)
				}
				sortDiags(pkg.Fset, all)
				results[i] = result{pkg: pkg, diags: all}
				timings[i] = t
				return
			}
			diags, err := analysis.Run(pkg, analyzers)
			results[i] = result{pkg: pkg, diags: diags, err: err}
		}(i, pkg)
	}
	wg.Wait()

	var flat []flatDiag
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "nrlint: %s: %v\n", r.pkg.PkgPath, r.err)
			exit = 2
			continue
		}
		for _, d := range r.diags {
			p := r.pkg.Fset.Position(d.Pos)
			flat = append(flat, flatDiag{
				File: p.Filename, Line: p.Line, Column: p.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			if exit == 0 {
				exit = 1
			}
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if flat == nil {
			flat = []flatDiag{}
		}
		if err := enc.Encode(flat); err != nil {
			fmt.Fprintf(os.Stderr, "nrlint: %v\n", err)
			exit = 2
		}
	default:
		for _, d := range flat {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Column, d.Message, d.Analyzer)
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, analyzers, flat); err != nil {
			fmt.Fprintf(os.Stderr, "nrlint: %v\n", err)
			exit = 2
		}
	}

	if *verbose {
		totals := make(map[string]time.Duration)
		for _, t := range timings {
			for name, d := range t {
				totals[name] += d
			}
		}
		names := make([]string, 0, len(totals))
		for name := range totals {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
		fmt.Fprintf(os.Stderr, "nrlint: %d packages, %d diagnostics\n", len(pkgs), len(flat))
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "  %-10s %v\n", name, totals[name].Round(time.Millisecond))
		}
	}
	os.Exit(exit)
}

// flatDiag is one diagnostic in the machine-readable outputs.
type flatDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// sortDiags restores source order after per-analyzer runs interleave.
func sortDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// SARIF 2.1.0 — the minimal subset code-scanning uploads need.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string      `json:"id"`
	ShortDescription sarifText   `json:"shortDescription"`
	Help             *sarifText  `json:"help,omitempty"`
	Properties       *sarifProps `json:"properties,omitempty"`
}

type sarifProps struct {
	Tags []string `json:"tags,omitempty"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(path string, analyzers []*analysis.Analyzer, diags []flatDiag) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
			Properties:       &sarifProps{Tags: []string{"concurrency", "nr"}},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	wd, _ := os.Getwd()
	for _, d := range diags {
		uri := d.File
		if wd != "" {
			if rel, err := filepath.Rel(wd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
				uri = filepath.ToSlash(rel)
			}
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: uri},
				Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "nrlint", Rules: rules}}, Results: results}},
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// expand resolves directory patterns, walking recursively for /... suffixes.
func expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		if !recursive {
			add(filepath.Clean(pat))
			continue
		}
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// isNoGo reports whether err is the "no buildable Go files" condition for a
// directory that simply holds no package.
func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}
