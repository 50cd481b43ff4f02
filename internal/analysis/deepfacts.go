package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file makes the noalloc and noio checks interprocedural. The local
// scans (noalloc.go, noio.go) only see sites in the annotated function's own
// body; an //nr:noalloc combining round that calls an innocuous-looking
// helper two packages away still allocates if the helper does. The deep pass
// computes a bottom-up may-allocate / may-do-I/O fact per module function
// over the call graph and reports, at each root's call sites, the full chain
// to the first offending site.
//
// Edge policy: Static, Iface and Defer edges are followed — they run on the
// caller's goroutine with the caller's obligations. Go edges are not (a
// spawned goroutine's allocations are the go statement's, which the local
// scan already flags). GenericIface edges are not: they cross the black-box
// boundary into user-supplied code (nr.Codec[O] and friends),
// and a user data structure is allowed to allocate — the paper's contract is
// about NR's own mechanism, not the boxed structure.
//
// Trust and suppression at every hop:
//
//   - a callee annotated with the root directive (//nr:noalloc,
//     //nr:hotpath-noio) is trusted clean — it is independently checked as a
//     root itself, so chains stop there instead of re-reporting;
//   - a callee whose declaration doc carries the suppression directive
//     (//nr:allocok, //nr:iook) is a documented exception (a cold dump
//     path), and is both exempt and a propagation barrier;
//   - the suppression directive on a call site's line (in whichever package
//     the hop lives) prunes that edge only.

// deepFact is the bottom-up summary for one module function: whether it may
// reach a forbidden site, and the first hop toward that site.
type deepFact struct {
	bad bool
	// via is the callee the site is reached through; nil when the site is in
	// this function's own body.
	via *types.Func
	// site and desc locate and describe the ultimate offending site.
	site token.Pos
	desc string
}

// deepKind parameterizes the engine for one forbidden-site family.
type deepKind struct {
	what     string // diagnostic noun phrase: "an allocation", "file I/O"
	root     string // root directive: "noalloc", "hotpath-noio"
	suppress string // suppression directive: "allocok", "iook"
	// factsOf selects the Graph's memo table for this kind.
	factsOf func(g *Graph) *map[*types.Func]*deepFact
	// scan runs the kind's local site scan over one function body.
	scan func(g *Graph, n *FuncNode, record func(pos token.Pos, desc string))
}

var deepAlloc = &deepKind{
	what:     "an allocation",
	root:     "noalloc",
	suppress: "allocok",
	factsOf:  func(g *Graph) *map[*types.Func]*deepFact { return &g.allocFacts },
	scan: func(g *Graph, n *FuncNode, record func(pos token.Pos, desc string)) {
		na := &noAlloc{
			info: n.Pkg.Info, pkg: n.Pkg.Types, dirs: g.dirs[n.Pkg], fn: n.Decl,
			calledLits: make(map[*ast.FuncLit]bool),
			report: func(nd ast.Node, format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				record(nd.Pos(), strings.ReplaceAll(msg, " in //nr:noalloc function", ""))
			},
		}
		na.markSafeLiterals()
		na.check()
	},
}

var deepIO = &deepKind{
	what:     "file I/O",
	root:     "hotpath-noio",
	suppress: "iook",
	factsOf:  func(g *Graph) *map[*types.Func]*deepFact { return &g.ioFacts },
	scan: func(g *Graph, n *FuncNode, record func(pos token.Pos, desc string)) {
		scanIO(n.Pkg.Info, n.Pkg.Types, g.dirs[n.Pkg], n.Decl, func(call *ast.CallExpr, what string) {
			record(call.Pos(), "call to "+what+" performs file I/O")
		})
	},
}

// deepFollows reports whether the deep passes follow e (see edge policy in
// the file comment).
func deepFollows(e Edge) bool {
	return e.Kind == EdgeStatic || e.Kind == EdgeIface || e.Kind == EdgeDefer
}

// deepFactLocked computes (memoized) kind's fact for fn. Caller holds g.mu.
// Cycles resolve optimistically: the placeholder published before recursion
// reads as clean, and any real site inside the cycle is still attributed to
// the function whose body holds it.
func (g *Graph) deepFactLocked(kind *deepKind, fn *types.Func) *deepFact {
	facts := kind.factsOf(g)
	if *facts == nil {
		*facts = make(map[*types.Func]*deepFact)
	}
	if f, ok := (*facts)[fn]; ok {
		return f
	}
	f := &deepFact{}
	(*facts)[fn] = f

	node := g.Node(fn)
	if node == nil {
		// Std or bodyless: the local scans classify calls into std packages
		// (allocPackages, ioPackages) at the call site, so unlisted std
		// callees are trusted clean here.
		return f
	}
	if node.FuncHas(kind.root) || node.FuncHas(kind.suppress) {
		return f // independently-checked root / documented exception
	}

	// Local sites first: the nearest site wins the diagnostic.
	kind.scan(g, node, func(pos token.Pos, desc string) {
		if !f.bad {
			f.bad, f.site, f.desc = true, pos, desc
		}
	})
	if f.bad {
		return f
	}

	for _, e := range node.Calls {
		if !deepFollows(e) || g.Node(e.Callee) == nil {
			continue
		}
		if g.LineHas(e.Pos, kind.suppress) {
			continue
		}
		if sub := g.deepFactLocked(kind, e.Callee); sub.bad {
			f.bad, f.via, f.site, f.desc = true, e.Callee, sub.site, sub.desc
			return f
		}
	}
	return f
}

// deepChain renders the call chain from first down to the offending site.
func (g *Graph) deepChain(kind *deepKind, first *types.Func) []*types.Func {
	fns := []*types.Func{first}
	f := (*kind.factsOf(g))[first]
	for depth := 0; f != nil && f.via != nil && depth < 8; depth++ {
		fns = append(fns, f.via)
		f = (*kind.factsOf(g))[f.via]
	}
	return fns
}

// checkDeep reports, at each of root fn's call sites, chains that reach a
// forbidden site. Local sites in fn's own body are the local scan's job and
// are not re-reported here.
func checkDeep(pass *Pass, fn *ast.FuncDecl, kind *deepKind) {
	g := pass.Graph
	if g == nil {
		return
	}
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	node := g.Node(obj)
	if node == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	reported := make(map[token.Pos]bool)
	for _, e := range node.Calls {
		if !deepFollows(e) || g.Node(e.Callee) == nil || reported[e.Pos] {
			continue
		}
		if g.LineHas(e.Pos, kind.suppress) {
			continue
		}
		f := g.deepFactLocked(kind, e.Callee)
		if !f.bad {
			continue
		}
		reported[e.Pos] = true
		site := g.fset.Position(f.site)
		pass.Reportf(e.Pos, "call to %s in //nr:%s function reaches %s: %s (%s at %s:%d); annotate the chain //nr:%s or document with //nr:%s",
			funcString(e.Callee), kind.root, kind.what,
			chainString(g.deepChain(kind, e.Callee)),
			f.desc, filepath.Base(site.Filename), site.Line,
			kind.root, kind.suppress)
	}
}

// checkDeepAlloc is runNoAlloc's interprocedural extension.
func checkDeepAlloc(pass *Pass, fn *ast.FuncDecl) { checkDeep(pass, fn, deepAlloc) }

// checkDeepIO is runNoIO's interprocedural extension.
func checkDeepIO(pass *Pass, fn *ast.FuncDecl) { checkDeep(pass, fn, deepIO) }
