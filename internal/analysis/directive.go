package analysis

// //nr: directive grammar (see DESIGN.md §10):
//
//	//nr:hotpath-noio         on a function: the body and its call chains must
//	                          never call into os/syscall.
//	//nr:spin                 on a function: busy-wait loops must yield on
//	                          every path (runtime.Gosched / time.Sleep /
//	                          channel op) and infinite loops in methods of
//	                          stop-channel-owning types must check stop. Also
//	                          a noblock root: nothing reachable from the body
//	                          may park the goroutine.
//	//nr:noblock              on a function: noblock root without the spinloop
//	                          shape requirements.
//	//nr:nilguard             on a func-typed struct field: calls through the
//	                          field must be dominated by a nil check.
//	//nr:lockorder <class>    on a lock-typed struct field or package var:
//	                          names the lock's order class.
//	//nr:lockorder a < b < c  anywhere: declares the acquisition partial order
//	                          over named classes (transitively closed).
//	//nr:opaque               on an interface method declaration: the method is
//	                          a black-box dispatch boundary; the call graph
//	                          never resolves calls through it (Sequential.Execute).
//	//nr:iook                 on a line (same line or the line above a
//	                          statement): suppresses noio for that site or
//	                          chain. On a function: documented-I/O barrier.
//	//nr:blockok              on a line: suppresses noblock for that site. On a
//	                          function: documented-blocking barrier — no-block
//	                          contexts do not propagate inside.
//	//nr:lockok               on a line: suppresses lockorder at that
//	                          acquisition (documented exception).
//	//nr:guarded              on a line: suppresses obsguard for that site.
//
// Like //go:build, a directive is only recognized with no space after the
// slashes, so prose mentioning "nr:spin" never annotates anything. A
// directive whose name is not in knownDirectives is reported by Run: a typo
// or a retired name would otherwise guard nothing, silently.

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// knownDirectives are the names the grammar above defines.
var knownDirectives = []string{
	"hotpath-noio", "spin", "noblock", "nilguard", "lockorder", "opaque",
	"iook", "blockok", "lockok", "guarded",
}

// Directive is one parsed //nr: annotation.
type Directive struct {
	Pos  token.Pos
	Name string // "spin", "lockorder", ...
	Args string // remainder after the name, trimmed
}

// Directives indexes a package's //nr: annotations by the declaration they
// are attached to, plus a by-line index for site suppressions.
type Directives struct {
	funcs  map[*ast.FuncDecl][]Directive
	fields map[*ast.Field][]Directive
	// lines maps filename -> line -> directive names appearing on that line.
	lines map[string]map[int][]string
	fset  *token.FileSet
	// unknown are the directives whose names are not in knownDirectives.
	unknown []Directive
}

// validDirectiveName reports whether s is a well-formed directive name
// (lowercase words and dashes). Guarding on this keeps prose that merely
// mentions "//nr:spin:" mid-sentence from registering junk directives.
func validDirectiveName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && r != '-' {
			return false
		}
	}
	return true
}

// parseDirectives decodes one comment into its directives. A comment must
// start with //nr: (no space after the slashes, like //go:build) to carry
// directives at all; after that, further //nr: segments in the same comment
// each start a new directive, so one line can suppress several analyzers:
//
//	i.dump() //nr:iook //nr:blockok cold black-box dump
func parseDirectives(c *ast.Comment) []Directive {
	rest, ok := strings.CutPrefix(c.Text, "//nr:")
	if !ok {
		return nil
	}
	var out []Directive
	for _, seg := range strings.Split(rest, "//nr:") {
		name, args, _ := strings.Cut(seg, " ")
		name = strings.TrimSpace(name)
		if !validDirectiveName(name) {
			continue
		}
		out = append(out, Directive{Pos: c.Pos(), Name: name, Args: strings.TrimSpace(args)})
	}
	return out
}

func groupDirectives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			out = append(out, parseDirectives(c)...)
		}
	}
	return out
}

// CollectDirectives parses every //nr: annotation in files. Attachment
// follows doc/line comments: a directive in a FuncDecl doc annotates the
// function; in a struct field's or interface method's doc or trailing line
// comment it annotates the field (including embedded fields, which have no
// names).
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	ds := &Directives{
		funcs:  make(map[*ast.FuncDecl][]Directive),
		fields: make(map[*ast.Field][]Directive),
		lines:  make(map[string]map[int][]string),
		fset:   fset,
	}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				for _, d := range parseDirectives(c) {
					if !slices.Contains(knownDirectives, d.Name) {
						ds.unknown = append(ds.unknown, d)
					}
					pos := fset.Position(c.Pos())
					byLine := ds.lines[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						ds.lines[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], d.Name)
				}
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if dirs := groupDirectives(decl.Doc); len(dirs) > 0 {
					ds.funcs[decl] = dirs
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					switch t := ts.Type.(type) {
					case *ast.StructType:
						if t.Fields == nil {
							continue
						}
						for _, field := range t.Fields.List {
							if dirs := groupDirectives(field.Doc, field.Comment); len(dirs) > 0 {
								ds.fields[field] = dirs
							}
						}
					case *ast.InterfaceType:
						// Interface methods are fields too; //nr:opaque on a
						// method marks a black-box dispatch boundary for the
						// call graph.
						if t.Methods == nil {
							continue
						}
						for _, m := range t.Methods.List {
							if dirs := groupDirectives(m.Doc, m.Comment); len(dirs) > 0 {
								ds.fields[m] = dirs
							}
						}
					}
				}
			}
		}
	}
	return ds
}

// has reports whether dirs contains a directive named name.
func has(dirs []Directive, name string) bool {
	for _, d := range dirs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// FuncHas reports whether fn carries the named directive.
func (ds *Directives) FuncHas(fn *ast.FuncDecl, name string) bool {
	return has(ds.funcs[fn], name)
}

// FieldHas reports whether field carries the named directive.
func (ds *Directives) FieldHas(field *ast.Field, name string) bool {
	return has(ds.fields[field], name)
}

// LineHas reports whether the named directive appears on the line of pos or
// the line immediately above it — the two places a site suppression like
// //nr:iook may be written.
func (ds *Directives) LineHas(pos token.Pos, name string) bool {
	p := ds.fset.Position(pos)
	byLine := ds.lines[p.Filename]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{p.Line, p.Line - 1} {
		for _, n := range byLine[l] {
			if n == name {
				return true
			}
		}
	}
	return false
}
