package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

type base struct{ x int }

type s struct {
	//nr:nilguard
	base
	plain int
	//nr:nilguard with trailing words
	a int
	b int //nr:nilguard
	// nr:nilguard — spaced, prose, not a directive
	c int
	//nr:noalloc
	hook func()
}

//nr:noalloc
//nr:spin
func annotated() {}

// Prose mentioning nr:spin should not annotate.
func plain() {
	suppressedSameLine() //nr:allocok scratch buffer
	//nr:guarded
	suppressedLineAbove()
}

func suppressedSameLine() {}
func suppressedLineAbove() {}

type padded[T any] struct {
	//nr:nilguard
	v T
	_ [56]byte
}
`

func parseDirectiveSrc(t *testing.T) (*Directives, *ast.File, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test_src.go", directiveSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return CollectDirectives(fset, []*ast.File{f}), f, fset
}

// findStruct returns the fields of the struct type named name.
func findStruct(t *testing.T, f *ast.File, name string) []*ast.Field {
	t.Helper()
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.Name != name {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				t.Fatalf("%s is not a struct", name)
			}
			return st.Fields.List
		}
	}
	t.Fatalf("struct %s not found", name)
	return nil
}

func findFunc(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("func %s not found", name)
	return nil
}

// fieldName names a field for test lookups; embedded fields use their type.
func fieldName(field *ast.Field) string {
	if len(field.Names) > 0 {
		return field.Names[0].Name
	}
	if id, ok := field.Type.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

func TestDirectiveFieldAttachment(t *testing.T) {
	ds, f, _ := parseDirectiveSrc(t)
	fields := findStruct(t, f, "s")

	want := map[string]bool{
		"base":  true, // embedded field: doc comment attaches despite no name
		"plain": false,
		"a":     true,  // trailing prose after the name is tolerated
		"b":     true,  // same-line trailing comment
		"c":     false, // "// nr:" with a space is prose, not a directive
		"hook":  false, // carries noalloc, not nilguard
	}
	for _, field := range fields {
		name := fieldName(field)
		if got := ds.FieldHas(field, "nilguard"); got != want[name] {
			t.Errorf("FieldHas(%s, nilguard) = %v, want %v", name, got, want[name])
		}
		if name == "hook" && !ds.FieldHas(field, "noalloc") {
			t.Errorf("FieldHas(hook, noalloc) = false, want true")
		}
	}
}

func TestDirectiveFuncAttachment(t *testing.T) {
	ds, f, _ := parseDirectiveSrc(t)

	annotated := findFunc(t, f, "annotated")
	for _, name := range []string{"noalloc", "spin"} {
		if !ds.FuncHas(annotated, name) {
			t.Errorf("FuncHas(annotated, %s) = false, want true", name)
		}
	}
	plain := findFunc(t, f, "plain")
	if ds.FuncHas(plain, "spin") {
		t.Error("prose mention of nr:spin annotated func plain")
	}
}

func TestDirectiveGenericType(t *testing.T) {
	ds, f, _ := parseDirectiveSrc(t)
	fields := findStruct(t, f, "padded")
	for _, field := range fields {
		if fieldName(field) == "v" && !ds.FieldHas(field, "nilguard") {
			t.Error("FieldHas(padded.v, nilguard) = false, want true")
		}
	}
}

func TestDirectiveLineSuppressions(t *testing.T) {
	ds, f, _ := parseDirectiveSrc(t)
	plain := findFunc(t, f, "plain")
	stmts := plain.Body.List
	if len(stmts) != 2 {
		t.Fatalf("plain has %d statements, want 2", len(stmts))
	}
	if !ds.LineHas(stmts[0].Pos(), "allocok") {
		t.Error("same-line //nr:allocok not found")
	}
	if !ds.LineHas(stmts[1].Pos(), "guarded") {
		t.Error("line-above //nr:guarded not found")
	}
	if ds.LineHas(stmts[1].Pos(), "allocok") {
		t.Error("allocok leaked to an unrelated line")
	}
}
