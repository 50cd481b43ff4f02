package analysis

import "testing"

// TestRepoPackagesClean runs every analyzer over the repo's own annotated
// packages and requires zero diagnostics. This pins the dogfood-clean state
// reached in PR 4 and doubles as the hard edge-case suite: internal/core is
// heavily generic (the call graph must resolve methods on instantiated types
// such as replica[O, R]), internal/trace carries build-tagged variants
// (word_race.go vs word_norace.go — the loader must pick exactly one), and
// internal/rwlock mixes //nr:spin locks with a writer-wait hook.
// A regression that makes any analyzer panic or false-positive on real NR
// code fails here before it fails in `make lint`.
func TestRepoPackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module from source")
	}
	dirs := []string{
		"../core", "../log", "../rwlock", "../trace", "../obs",
		"../persist", "../baseline", "../obs/tsdb", "../obs/prom", "../..",
	}
	loader := NewLoader()
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatalf("run analyzers on %s: %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected diagnostic: %s: %s (%s)",
				dir, pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}
