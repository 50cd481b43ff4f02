package nr_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef matches a citation of a DESIGN.md section, also when a line
// break (and a comment marker) falls between the file name and the §.
var designRef = regexp.MustCompile(`DESIGN\.md(?:\s|//|\*)*§([0-9]+[a-z]?)`)

// TestDesignSectionRefsResolve checks that every `DESIGN.md §<id>` cited in
// a Go file, README.md or EXPERIMENTS.md names a section DESIGN.md has: a
// `## <id>.` heading. Deleting or renumbering a section then fails here
// instead of leaving dangling citations.
func TestDesignSectionRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+[a-z]?)\. `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no `## <id>.` headings")
	}

	files := []string{"README.md", "EXPERIMENTS.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllSubmatch(src, -1) {
			refs++
			if !sections[string(m[1])] {
				t.Errorf("%s cites DESIGN.md §%s, but DESIGN.md has no `## %s.` heading", f, m[1], m[1])
			}
		}
	}
	if refs == 0 {
		t.Error("found no DESIGN.md § citations; the pattern no longer matches how they are written")
	}
}
