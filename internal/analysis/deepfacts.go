package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// This file makes the noio check interprocedural. The local scan (noio.go)
// only sees sites in the annotated function's own body; an
// //nr:hotpath-noio combining round that calls an innocuous-looking helper
// two packages away still reaches the disk if the helper does. The deep
// pass computes a bottom-up may-do-I/O fact per module function over the
// call graph and reports, at each root's call sites, the full chain to the
// first offending site.
//
// Edge policy: Static, Iface and Defer edges are followed — they run on the
// caller's goroutine with the caller's obligations. Go edges are not (a
// spawned goroutine's I/O is its own goroutine's cost, not the hot path's).
// GenericIface edges are not: they cross the black-box boundary into
// user-supplied code (nr.Codec[O] and friends), and the paper's contract is
// about NR's own mechanism, not the boxed structure.
//
// Trust and suppression at every hop:
//
//   - a callee annotated //nr:hotpath-noio is trusted clean — it is
//     independently checked as a root itself, so chains stop there instead
//     of re-reporting;
//   - a callee whose declaration doc carries //nr:iook is a documented
//     exception (a cold dump path), and is both exempt and a propagation
//     barrier;
//   - //nr:iook on a call site's line (in whichever package the hop lives)
//     prunes that edge only.

// ioFact is the bottom-up summary for one module function: whether it may
// reach file I/O, and the first hop toward that site.
type ioFact struct {
	bad bool
	// via is the callee the site is reached through; nil when the site is in
	// this function's own body.
	via *types.Func
	// site and desc locate and describe the ultimate offending site.
	site token.Pos
	desc string
}

// deepFollows reports whether the deep pass follows e (see edge policy in
// the file comment).
func deepFollows(e Edge) bool {
	return e.Kind == EdgeStatic || e.Kind == EdgeIface || e.Kind == EdgeDefer
}

// ioFactLocked computes (memoized) fn's I/O fact. Caller holds g.mu.
// Cycles resolve optimistically: the placeholder published before recursion
// reads as clean, and any real site inside the cycle is still attributed to
// the function whose body holds it.
func (g *Graph) ioFactLocked(fn *types.Func) *ioFact {
	if g.ioFacts == nil {
		g.ioFacts = make(map[*types.Func]*ioFact)
	}
	if f, ok := g.ioFacts[fn]; ok {
		return f
	}
	f := &ioFact{}
	g.ioFacts[fn] = f

	node := g.Node(fn)
	if node == nil {
		// Std or bodyless: the local scan classifies calls into std packages
		// (ioPackages) at the call site, so unlisted std callees are trusted
		// clean here.
		return f
	}
	if node.FuncHas("hotpath-noio") || node.FuncHas("iook") {
		return f // independently-checked root / documented exception
	}

	// Local sites first: the nearest site wins the diagnostic.
	scanIO(node.Pkg.Info, node.Pkg.Types, g.dirs[node.Pkg], node.Decl, func(call *ast.CallExpr, what string) {
		if !f.bad {
			f.bad, f.site, f.desc = true, call.Pos(), "call to "+what+" performs file I/O"
		}
	})
	if f.bad {
		return f
	}

	for _, e := range node.Calls {
		if !deepFollows(e) || g.Node(e.Callee) == nil {
			continue
		}
		if g.LineHas(e.Pos, "iook") {
			continue
		}
		if sub := g.ioFactLocked(e.Callee); sub.bad {
			f.bad, f.via, f.site, f.desc = true, e.Callee, sub.site, sub.desc
			return f
		}
	}
	return f
}

// ioChain renders the call chain from first down to the offending site.
func (g *Graph) ioChain(first *types.Func) []*types.Func {
	fns := []*types.Func{first}
	f := g.ioFacts[first]
	for depth := 0; f != nil && f.via != nil && depth < 8; depth++ {
		fns = append(fns, f.via)
		f = g.ioFacts[f.via]
	}
	return fns
}

// checkDeepIO is runNoIO's interprocedural extension: it reports, at each
// of root fn's call sites, chains that reach file I/O. Local sites in fn's
// own body are the local scan's job and are not re-reported here.
func checkDeepIO(pass *Pass, fn *ast.FuncDecl) {
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
		if g.LineHas(e.Pos, "iook") {
			continue
		}
		f := g.ioFactLocked(e.Callee)
		if !f.bad {
			continue
		}
		reported[e.Pos] = true
		site := g.fset.Position(f.site)
		pass.Reportf(e.Pos, "call to %s in //nr:hotpath-noio function reaches file I/O: %s (%s at %s:%d); annotate the chain //nr:hotpath-noio or document with //nr:iook",
			funcString(e.Callee), chainString(g.ioChain(e.Callee)),
			f.desc, filepath.Base(site.Filename), site.Line)
	}
}
