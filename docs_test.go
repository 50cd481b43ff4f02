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

// roadmapRef matches a citation of ROADMAP items, "ROADMAP item 5" or
// "ROADMAP items 6 and 10", with the same line-break tolerance as
// designRef; group 1 holds the cited numbers.
var roadmapRef = regexp.MustCompile(`ROADMAP(?:\s|//|\*)*items?(?:\s|//|\*)*([0-9]+(?:(?:\s|//|,|and)+[0-9]+)*)`)

// docFiles lists the files whose citations must resolve: every Go file and
// the top-level and results documents.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	return files
}

// TestRoadmapItemRefsResolve checks that every ROADMAP item a Go file,
// README.md, EXPERIMENTS.md, DESIGN.md or results/README.md cites has an
// `N. ` line under ROADMAP.md's "## Open items": an open item, or a done
// one that keeps its line. Removing or renumbering an item then fails here
// instead of leaving the citation pointing at nothing.
func TestRoadmapItemRefsResolve(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, open, ok := strings.Cut(string(roadmap), "\n## Open items\n")
	if !ok {
		t.Fatal("ROADMAP.md has no `## Open items` section")
	}
	if end := strings.Index(open, "\n## "); end >= 0 {
		open = open[:end]
	}
	items := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([0-9]+)\. `).FindAllStringSubmatch(open, -1) {
		items[m[1]] = true
	}
	refs := 0
	for _, f := range docFiles(t) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roadmapRef.FindAllSubmatch(src, -1) {
			for _, n := range regexp.MustCompile(`[0-9]+`).FindAll(m[1], -1) {
				refs++
				if !items[string(n)] {
					t.Errorf("%s cites ROADMAP item %s, but ROADMAP.md's open items have no `%s. ` line", f, n, n)
				}
			}
		}
	}
	if refs == 0 {
		t.Error("found no ROADMAP item citations; the pattern no longer matches how they are written")
	}
}

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
	for _, f := range docFiles(t) {
		if strings.HasSuffix(f, ".go") {
			files = append(files, f)
		}
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
