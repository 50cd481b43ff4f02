// Package analysis is nrlint's static-analysis framework: a deliberately
// small, dependency-free re-implementation of the golang.org/x/tools
// go/analysis API shape (Analyzer, Pass, Diagnostic) plus a source loader
// (load.go) and a `// want`-comment test harness
// (analysistest/analysistest.go).
//
// The container this repo builds in has no module cache and no network, so
// x/tools is not importable; everything here uses only the standard library
// (go/ast, go/parser, go/types and the "source" importer). The API mirrors
// x/tools closely enough that the analyzers (spinloop.go, obsguard.go,
// noio.go, lockorder.go, noblock.go) would port to a real multichecker by
// changing imports.
//
// The analyzers enforce NR's unchecked invariants — the hot-path and
// lock discipline the paper's NUMA win depends on (§5.1, §5.2, §5.5 of
// "Black-box Concurrent Data Structures for NUMA Architectures") — from
// `//nr:` comment directives placed on the real fields and functions. See
// directive.go for the grammar and DESIGN.md §10 for the invariant ↔ paper
// mapping. Cache-line layout is pinned by each package's layout tests,
// atomic-word copies by go vet's copylocks check, and allocation-free hot
// paths by each package's testing.AllocsPerRun pins.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one nrlint check. Unlike x/tools there is no Requires
// graph: every analyzer runs independently on a loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-paragraph description, shown by `nrlint -list`.
	Doc string
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos token.Pos
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files (comments included), build-tag
	// filtered the same way `go build` would for this platform.
	Files []*ast.File
	// Pkg and Info are the type-checked package and its fact tables.
	Pkg  *types.Package
	Info *types.Info
	// Directives are the package's parsed //nr: annotations.
	Directives *Directives
	// Graph is the module-wide call graph over every package the loader has
	// loaded so far; the interprocedural analyzers (lockorder, noblock,
	// noio's deep pass) consume it. Nil when the package was built without a
	// Loader.
	Graph *Graph

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzers against pkg and returns their diagnostics in
// file/position order, together with one "directive" diagnostic per //nr:
// name the grammar does not define (directive.go). An analyzer returning an
// error aborts the run.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := CollectDirectives(pkg.Fset, pkg.Files)
	var g *Graph
	if pkg.loader != nil {
		g = pkg.loader.Graph()
	}
	var out []Diagnostic
	for _, d := range dirs.unknown {
		out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "directive", Message: fmt.Sprintf("unknown directive //nr:%s guards nothing", d.Name)})
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Directives: dirs,
			Graph:      g,
			report:     func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns every nrlint analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{SpinLoop, ObsGuard, NoIO, LockOrder, NoBlock}
}
