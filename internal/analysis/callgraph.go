package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file builds a module-wide static call graph over every package the
// Loader has loaded. The interprocedural analyzers (lockorder.go, noblock.go,
// and noio's deep pass in deepfacts.go) all consume it: they need to know
// what a //nr:hotpath-noio root reaches two calls down, and which functions
// run while the combiner lock is held.
//
// Resolution strategy (soundness vs. noise, documented per edge kind):
//
//   - Static: direct calls and method calls through a concrete receiver.
//     Always resolved.
//   - Iface: calls through a non-generic interface declared in the module
//     (e.g. obs.Observer). Resolved conservatively to every
//     module type whose method set implements the interface — one edge per
//     implementation.
//   - GenericIface: calls through a generic interface (e.g.
//     nr.Codec[O], whose type argument is still a type parameter at
//     the call site, so types.Implements cannot decide). Resolved by
//     method name + parameter/result arity against module types. These
//     edges cross the black-box boundary into user-supplied code, so each
//     analyzer chooses whether to follow them (lockorder does; noio's deep
//     pass does not — NR's contracts stop at the boxed structure).
//   - Go / Defer: the call is spawned with `go` (new goroutine: lock
//     contexts do not transfer) or registered with `defer` (same
//     goroutine, runs at return: contexts do transfer).
//
// Calls through plain function values (fields like apply func(...), stored
// closures) are not resolved — NR's black-box user operations reach the
// replicas exactly that way, and treating them as opaque is what keeps the
// analyzers from flagging user code. Calls inside a func literal are
// attributed to the enclosing declared function (the literal runs inline or
// deferred on the same goroutine) except when the literal is the operand of
// a go statement, in which case its calls get Go edges.

// EdgeKind classifies how a call site reaches its callee.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call or a concrete-receiver method call.
	EdgeStatic EdgeKind = iota
	// EdgeIface is a call through a non-generic module interface, resolved
	// to every implementing module type.
	EdgeIface
	// EdgeGenericIface is a call through a generic interface, resolved by
	// method name and arity.
	EdgeGenericIface
	// EdgeGo is a call (of any of the above resolutions) spawned on a new
	// goroutine by a go statement.
	EdgeGo
	// EdgeDefer is a call registered by a defer statement; it runs on the
	// same goroutine when the enclosing function returns.
	EdgeDefer
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeGenericIface:
		return "generic-iface"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	}
	return "unknown"
}

// Edge is one resolved call from a function to a callee. Interface calls
// produce one Edge per candidate implementation, sharing the call site.
type Edge struct {
	// Call is the call expression (nil for method values passed as
	// arguments — not currently produced).
	Call *ast.CallExpr
	// Pos is the call site.
	Pos token.Pos
	// Kind classifies the resolution.
	Kind EdgeKind
	// Callee is the resolved target, canonicalized to its generic origin.
	// It may belong to a package outside the graph (std).
	Callee *types.Func
}

// FuncNode is one declared function in a loaded package.
type FuncNode struct {
	// Fn is the function object (its Origin for generic functions).
	Fn *types.Func
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Pkg is the loaded package declaring the function.
	Pkg *Package
	// Calls are the function's resolved call edges in source order.
	Calls []Edge
	// callEdges indexes Calls by call expression for the flow walkers.
	callEdges map[*ast.CallExpr][]Edge
	// Dirs are the function's //nr: doc directives.
	Dirs []Directive
}

// FuncHas reports whether the function's doc carries the named directive.
func (n *FuncNode) FuncHas(name string) bool { return has(n.Dirs, name) }

// String renders the function as pkg.Name or pkg.(Recv).Name.
func (n *FuncNode) String() string { return funcString(n.Fn) }

func funcString(fn *types.Func) string {
	if fn == nil {
		return "<nil>"
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// Graph is the module-wide call graph plus the global directive and lock
// indexes the interprocedural analyzers share. It is immutable after
// BuildGraph; the lazily-computed analyzer facts hanging off it are guarded
// for concurrent Run calls from the parallel driver.
type Graph struct {
	gen  int // number of loaded packages at build time (cache key)
	fset *token.FileSet

	// pkgs are the loaded packages at build time, sorted by import path so
	// every resolution below is deterministic.
	pkgs []*Package
	// funcs indexes every declared function with a body.
	funcs map[*types.Func]*FuncNode
	// dirs holds each package's parsed directives (shared with Run).
	dirs map[*Package]*Directives
	// lines is the merged, module-wide line-suppression index: a chain
	// diagnostic is suppressed by a directive on any hop's line, which may
	// be in another package than the reporting pass.
	lines map[string]map[int][]string

	// locks describes every recognized lock field/var and its class; order
	// is the declared partial order over classes. Built by lockorder.go's
	// collection pass during BuildGraph so all analyzers can share it.
	locks *lockIndex
	// opaque marks interface methods annotated //nr:opaque: the black-box
	// dispatch boundary (core.Sequential.Execute and friends). Calls through
	// them are never resolved — the boxed structure is user code, outside
	// NR's own contracts.
	opaque map[*types.Func]bool

	mu         sync.Mutex
	lockFacts  *lockFacts
	lockDiags  *[]globalDiag
	noblockRes *[]globalDiag
	ioFacts    map[*types.Func]*ioFact
}

// Fset returns the graph's file set.
func (g *Graph) Fset() *token.FileSet { return g.fset }

// Node returns the graph node for fn (its generic origin), or nil when fn is
// not a module function with a body.
func (g *Graph) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.funcs[fn.Origin()]
}

// LineHas reports whether the named directive appears on pos's line or the
// line above, anywhere in the module (cross-package suppression for chain
// diagnostics).
func (g *Graph) LineHas(pos token.Pos, name string) bool {
	p := g.fset.Position(pos)
	byLine := g.lines[p.Filename]
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

// Graph returns the call graph over every package this loader has loaded,
// building (or rebuilding) it when new packages have been loaded since the
// last call. Safe for concurrent use; the loader itself must not be loading
// concurrently.
func (l *Loader) Graph() *Graph {
	l.graphMu.Lock()
	defer l.graphMu.Unlock()
	if l.graph != nil && l.graph.gen == len(l.pkgs) {
		return l.graph
	}
	l.graph = buildGraph(l)
	return l.graph
}

func buildGraph(l *Loader) *Graph {
	g := &Graph{
		gen:    len(l.pkgs),
		fset:   l.Fset,
		funcs:  make(map[*types.Func]*FuncNode),
		dirs:   make(map[*Package]*Directives),
		lines:  make(map[string]map[int][]string),
		opaque: make(map[*types.Func]bool),
	}
	for _, pkg := range l.pkgs {
		g.pkgs = append(g.pkgs, pkg)
	}
	sort.Slice(g.pkgs, func(i, j int) bool { return g.pkgs[i].PkgPath < g.pkgs[j].PkgPath })

	for _, pkg := range g.pkgs {
		dirs := CollectDirectives(pkg.Fset, pkg.Files)
		g.dirs[pkg] = dirs
		for file, byLine := range dirs.lines {
			merged := g.lines[file]
			if merged == nil {
				merged = make(map[int][]string)
				g.lines[file] = merged
			}
			for line, names := range byLine {
				merged[line] = append(merged[line], names...)
			}
		}
	}

	// Index every declared function with a body.
	for _, pkg := range g.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.funcs[obj.Origin()] = &FuncNode{
					Fn:   obj.Origin(),
					Decl: fd,
					Pkg:  pkg,
					Dirs: g.dirs[pkg].funcs[fd],
				}
			}
		}
	}

	// Opaque boundary methods: interface methods (which are ast.Fields)
	// annotated //nr:opaque. Struct fields define *types.Var, so only
	// genuine interface methods land here.
	for _, pkg := range g.pkgs {
		for field, fdirs := range g.dirs[pkg].fields {
			if !has(fdirs, "opaque") || len(field.Names) != 1 {
				continue
			}
			if fn, ok := pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
				g.opaque[fn.Origin()] = true
			}
		}
	}

	ifaces := g.moduleInterfaces()
	for _, node := range g.sortedNodes() {
		g.collectEdges(node, ifaces)
	}

	g.locks = buildLockIndex(g)
	return g
}

// sortedNodes returns graph nodes in deterministic (file position) order.
func (g *Graph) sortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.funcs))
	for _, n := range g.funcs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	return nodes
}

// ifaceMethod is one abstract interface method with its candidate concrete
// implementations, precomputed so edge collection is O(1) per call site.
type ifaceImpls struct {
	// impls maps an abstract *types.Func (interface method) to its module
	// implementations.
	impls map[*types.Func][]*types.Func
	// byShape maps method name -> param/result arity -> exported module
	// methods, for generic interfaces where Implements cannot decide.
	byShape map[string][]*types.Func
}

// moduleInterfaces precomputes interface-method resolution tables over the
// loaded packages' named types.
func (g *Graph) moduleInterfaces() *ifaceImpls {
	res := &ifaceImpls{
		impls:   make(map[*types.Func][]*types.Func),
		byShape: make(map[string][]*types.Func),
	}

	// All named types and all interface types declared in loaded packages.
	var concrete []types.Type
	var ifaceTypes []*types.Named
	for _, pkg := range g.pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaceTypes = append(ifaceTypes, named)
				continue
			}
			if named.TypeParams().Len() > 0 {
				// Generic concrete type: its methods participate via the
				// shape table only (Implements needs instantiation).
				concrete = append(concrete, named)
				continue
			}
			concrete = append(concrete, named)
		}
	}

	// Shape table: every method of every module named type.
	for _, t := range concrete {
		named := t.(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			sig := m.Type().(*types.Signature)
			key := shapeKey(m.Name(), sig.Params().Len(), sig.Results().Len())
			res.byShape[key] = append(res.byShape[key], m)
		}
	}

	// Implements table for non-generic interfaces.
	for _, in := range ifaceTypes {
		if in.TypeParams().Len() > 0 {
			continue
		}
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, t := range concrete {
			named := t.(*types.Named)
			if named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				am := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, am.Pkg(), am.Name())
				if impl, ok := obj.(*types.Func); ok {
					res.impls[am] = append(res.impls[am], impl.Origin())
				}
			}
		}
	}
	return res
}

func shapeKey(name string, params, results int) string {
	return fmt.Sprintf("%s/%d/%d", name, params, results)
}

// collectEdges walks node's body, resolving every call expression to edges.
func (g *Graph) collectEdges(node *FuncNode, ifaces *ifaceImpls) {
	info := node.Pkg.Info

	// walk visits n recording call edges; mode upgrades edge kinds for
	// calls that execute on a spawned goroutine (inside a go-literal) or at
	// return (inside a defer-literal).
	var walk func(n ast.Node, mode EdgeKind)
	node.callEdges = make(map[*ast.CallExpr][]Edge)
	addCall := func(call *ast.CallExpr, mode EdgeKind) {
		for _, callee := range g.resolveCall(info, call, ifaces) {
			kind := callee.kind
			if mode == EdgeGo {
				kind = EdgeGo
			} else if mode == EdgeDefer && kind != EdgeGo {
				kind = EdgeDefer
			}
			e := Edge{Call: call, Pos: call.Pos(), Kind: kind, Callee: callee.fn}
			node.Calls = append(node.Calls, e)
			node.callEdges[call] = append(node.callEdges[call], e)
		}
	}
	walk = func(n ast.Node, mode EdgeKind) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				addCall(n.Call, EdgeGo)
				for _, arg := range n.Call.Args {
					walk(arg, mode)
				}
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, EdgeGo)
				}
				return false
			case *ast.DeferStmt:
				addCall(n.Call, EdgeDefer)
				for _, arg := range n.Call.Args {
					walk(arg, mode)
				}
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, EdgeDefer)
				}
				return false
			case *ast.CallExpr:
				addCall(n, mode)
				return true
			}
			return true
		})
	}
	walk(node.Decl.Body, EdgeStatic)
}

type resolved struct {
	fn   *types.Func
	kind EdgeKind
}

// resolveCall resolves one call expression to zero or more callees.
func (g *Graph) resolveCall(info *types.Info, call *ast.CallExpr, ifaces *ifaceImpls) []resolved {
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return []resolved{{f.Origin(), EdgeStatic}}
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Qualified identifier: pkg.Func.
			if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
				return []resolved{{f.Origin(), EdgeStatic}}
			}
			return nil
		}
		f, ok := sel.Obj().(*types.Func)
		if !ok {
			return nil // field of function type: opaque function value
		}
		recv := sel.Recv()
		if _, isIface := recv.Underlying().(*types.Interface); !isIface {
			return []resolved{{f.Origin(), EdgeStatic}}
		}
		// Interface method call.
		abstract := f.Origin()
		if g.opaque[abstract] {
			return nil // declared black-box boundary
		}
		if impls, ok := ifaces.impls[abstract]; ok && len(impls) > 0 {
			out := make([]resolved, 0, len(impls))
			for _, impl := range impls {
				out = append(out, resolved{impl, EdgeIface})
			}
			return out
		}
		// Generic (or foreign) interface: resolve by name + arity against
		// module methods. Skip std interfaces (io.Writer, error): following
		// them would wire unrelated module types together.
		if f.Pkg() == nil || !g.isModulePkg(f.Pkg()) {
			return nil
		}
		sig := f.Type().(*types.Signature)
		key := shapeKey(f.Name(), sig.Params().Len(), sig.Results().Len())
		var out []resolved
		for _, impl := range ifaces.byShape[key] {
			if types.IsInterface(impl.Type().(*types.Signature).Recv().Type()) {
				continue
			}
			out = append(out, resolved{impl.Origin(), EdgeGenericIface})
		}
		return out
	}
	return nil
}

// isModulePkg reports whether p is one of the graph's loaded packages.
func (g *Graph) isModulePkg(p *types.Package) bool {
	for _, pkg := range g.pkgs {
		if pkg.Types == p {
			return true
		}
	}
	return false
}

// chainString renders a call chain fn -> fn -> ... for diagnostics.
func chainString(fns []*types.Func) string {
	parts := make([]string, len(fns))
	for i, fn := range fns {
		parts[i] = funcString(fn)
	}
	return strings.Join(parts, " -> ")
}
