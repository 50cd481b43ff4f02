package analysis

import (
	"go/types"
	"testing"
)

// loadFixtureGraph loads testdata/src/callgraph and returns its package and
// the module-wide graph.
func loadFixtureGraph(t *testing.T) (*Package, *Graph) {
	t.Helper()
	loader := NewLoader()
	pkg, err := loader.LoadDir("testdata/src/callgraph")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return pkg, loader.Graph()
}

func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %q in fixture (got %v)", name, obj)
	}
	return fn
}

// TestGraphIfaceEdges checks that a call through a module interface resolves
// to one EdgeIface per implementing type.
func TestGraphIfaceEdges(t *testing.T) {
	pkg, g := loadFixtureGraph(t)
	node := g.Node(fixtureFunc(t, pkg, "UseIface"))
	if node == nil {
		t.Fatal("no graph node for UseIface")
	}
	callees := map[string]int{}
	for _, e := range node.Calls {
		if e.Kind != EdgeIface {
			t.Errorf("UseIface edge to %s has kind %s, want iface", funcString(e.Callee), e.Kind)
		}
		callees[funcString(e.Callee)]++
	}
	for _, want := range []string{
		"callgraph.SpinL.Acquire", "callgraph.QueueL.Acquire",
		"callgraph.SpinL.Release", "callgraph.QueueL.Release",
	} {
		if callees[want] != 1 {
			t.Errorf("UseIface: %d edges to %s, want 1 (have %v)", callees[want], want, callees)
		}
	}
}

// TestGraphOpaqueBoundary checks that calls through an //nr:opaque interface
// method are not resolved, even though an implementation is in scope.
func TestGraphOpaqueBoundary(t *testing.T) {
	pkg, g := loadFixtureGraph(t)
	node := g.Node(fixtureFunc(t, pkg, "UseOpaque"))
	if node == nil {
		t.Fatal("no graph node for UseOpaque")
	}
	for _, e := range node.Calls {
		t.Errorf("UseOpaque has edge to %s (%s); //nr:opaque calls must stay unresolved", funcString(e.Callee), e.Kind)
	}
}

// TestGraphGoDeferEdges checks the go/defer edge kinds: spawned and deferred
// calls keep their target but change kind, and plain calls stay static.
func TestGraphGoDeferEdges(t *testing.T) {
	pkg, g := loadFixtureGraph(t)
	node := g.Node(fixtureFunc(t, pkg, "Spawner"))
	if node == nil {
		t.Fatal("no graph node for Spawner")
	}
	kinds := map[string][]EdgeKind{}
	for _, e := range node.Calls {
		name := funcString(e.Callee)
		kinds[name] = append(kinds[name], e.Kind)
	}
	leaf := kinds["callgraph.Leaf"]
	if len(leaf) != 2 || !hasKind(leaf, EdgeGo) || !hasKind(leaf, EdgeDefer) {
		t.Errorf("Spawner -> Leaf edges = %v, want one go and one defer", leaf)
	}
	if h := kinds["callgraph.helper"]; len(h) != 1 || h[0] != EdgeStatic {
		t.Errorf("Spawner -> helper edges = %v, want one static", h)
	}
}

func hasKind(ks []EdgeKind, k EdgeKind) bool {
	for _, have := range ks {
		if have == k {
			return true
		}
	}
	return false
}

// TestDeclaredLockOrderPinned loads the real NR packages and pins the
// system-wide declared order — the machine-checked form of the paper's
// deadlock-freedom argument. If someone deletes or reorders the
// //nr:lockorder declarations, this fails before any dogfood run does.
func TestDeclaredLockOrderPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module from source")
	}
	loader := NewLoader()
	for _, dir := range []string{"../core", "../persist"} {
		if _, err := loader.LoadDir(dir); err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
	}
	idx := loader.Graph().locks
	for _, want := range [][2]string{
		{"combiner", "crossApply"},
		{"crossApply", "replicaWriter"},
		{"combiner", "replicaWriter"}, // transitive closure
		{"refresher", "replicaWriter"},
	} {
		if !idx.less[want[0]][want[1]] {
			t.Errorf("declared order missing %s < %s", want[0], want[1])
		}
		if idx.less[want[1]][want[0]] {
			t.Errorf("declared order contains inverted %s < %s", want[1], want[0])
		}
	}
	if c := idx.byName["combiner"]; c == nil || !c.spin {
		t.Errorf("combiner class = %+v, want a declared spin class", c)
	}
	// The WAL's appender lock is still a declared sync-blocking class, but
	// no protocol lock orders before it any more: the WAL follows the log on
	// its own goroutine, so nothing in core is held while it is taken.
	if c := idx.byName["walAppend"]; c == nil || !c.syncBlocking {
		t.Errorf("walAppend class = %+v, want a declared sync-blocking class", c)
	}
	for _, core := range []string{"combiner", "crossApply", "replicaWriter", "refresher"} {
		if idx.less[core]["walAppend"] {
			t.Errorf("declared order still has %s < walAppend", core)
		}
	}
	if c := idx.byName["replicaWriter"]; c == nil {
		t.Error("replicaWriter class missing")
	}
	for _, d := range idx.declDiags {
		t.Errorf("unexpected declaration diagnostic: %s", d.msg)
	}
}
