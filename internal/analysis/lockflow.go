package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural engine behind lockorder (and the lock
// part of noblock): a source-order walk of each function body maintaining
// the set of lock classes that may be held, function summaries (which
// classes a callee leaves acquired or released — replicaWriteLock /
// replicaWriteUnlock style helpers), and a worklist fixpoint propagating
// may-hold-at-entry sets over call edges.
//
// The walk is a deliberate over-approximation: an acquisition inside a
// branch is assumed held for the rest of the function unless scoped by one
// of the recognized TryLock patterns, and defer-released locks stay held
// until the end of the body (which is when the deferred Unlock actually
// runs). Both choices bias toward reporting; //nr:lockok documents the
// exceptions.

// heldInfo records how a held class came to be held.
type heldInfo struct {
	// fromEntry: held by some caller when this function is entered (the
	// witness chain lives in lockFacts.witness).
	fromEntry bool
	// pos is the local acquisition site (IsValid only when !fromEntry).
	pos token.Pos
}

type heldSet map[*lockClass]heldInfo

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// lockSummary is a function's net effect on the held set.
type lockSummary struct {
	exitHeld     map[*lockClass]bool // acquired and still held at return
	exitReleased map[*lockClass]bool // released though acquired by a caller
}

func (s *lockSummary) equal(o *lockSummary) bool {
	if len(s.exitHeld) != len(o.exitHeld) || len(s.exitReleased) != len(o.exitReleased) {
		return false
	}
	for k := range s.exitHeld {
		if !o.exitHeld[k] {
			return false
		}
	}
	for k := range s.exitReleased {
		if !o.exitReleased[k] {
			return false
		}
	}
	return true
}

// witness records who propagated a held class into a function's entry set.
type witness struct {
	caller *types.Func
	pos    token.Pos
}

// lockFacts is the converged interprocedural lock state.
type lockFacts struct {
	sums    map[*types.Func]*lockSummary
	entry   map[*types.Func]heldSet
	witness map[*types.Func]map[*lockClass]witness
}

// flowVisitor observes events during a lock-flow walk.
type flowVisitor struct {
	// onAcquire fires at each recognized acquisition, with the held set
	// *before* the acquisition takes effect.
	onAcquire func(op lockOp, call *ast.CallExpr, held heldSet)
	// onCall fires at each call with resolved edges, with the held set at
	// the site. Deferred calls fire at end-of-body with the held set there.
	onCall func(edges []Edge, call *ast.CallExpr, held heldSet)
	// onNode fires for the statement/expression forms noblock inspects:
	// SendStmt, SelectStmt, RangeStmt, and receive UnaryExpr.
	onNode func(n ast.Node, held heldSet)
}

// flowState carries one walk over one function body.
type flowState struct {
	g             *Graph
	node          *FuncNode
	info          *types.Info
	sums          map[*types.Func]*lockSummary
	v             flowVisitor
	held          heldSet
	acquiredLocal map[*lockClass]bool
	exitReleased  map[*lockClass]bool
	consumed      map[*ast.CallExpr]bool // TryLock calls handled by a pattern
	deferred      []deferEvent
}

type deferEvent struct {
	release *lockClass     // deferred Unlock of this class
	call    *ast.CallExpr  // deferred call with graph edges
	lit     *ast.BlockStmt // deferred func literal body, replayed inline
}

// walkClauses walks a switch/select body whose statements are CaseClause /
// CommClause alternatives, isolating each clause's lock effects. The no-op
// alternative keeps the entry state in the union (no clause may match).
func (s *flowState) walkClauses(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	alts := []func(){func() {}}
	for _, cl := range body.List {
		cl := cl
		alts = append(alts, func() { s.walkStmt(cl) })
	}
	s.walkAlts(alts...)
}

// walkAlts walks mutually-exclusive alternatives (if/else arms, switch and
// select clauses), each from the same entry state, and leaves the union of
// their outcomes — may-hold must not leak an acquisition from one arm into
// a sibling arm (an `if ring { RLockObserved } else { RLock }` pair is one
// acquisition, not a re-acquisition).
func (s *flowState) walkAlts(alts ...func()) {
	entryHeld := s.held
	entryLocal := s.acquiredLocal
	outHeld := make(heldSet)
	outLocal := make(map[*lockClass]bool)
	for _, alt := range alts {
		s.held = entryHeld.clone()
		s.acquiredLocal = cloneClassSet(entryLocal)
		alt()
		for c, hi := range s.held {
			if _, ok := outHeld[c]; !ok {
				outHeld[c] = hi
			}
		}
		for c := range s.acquiredLocal {
			outLocal[c] = true
		}
	}
	s.held = outHeld
	s.acquiredLocal = outLocal
}

// walkLockFlow walks node's body with the given entry held set and callee
// summaries, invoking v, and returns the function's own summary.
func (g *Graph) walkLockFlow(node *FuncNode, entry heldSet, sums map[*types.Func]*lockSummary, v flowVisitor) *lockSummary {
	s := &flowState{
		g:             g,
		node:          node,
		info:          node.Pkg.Info,
		sums:          sums,
		v:             v,
		held:          entry.clone(),
		acquiredLocal: make(map[*lockClass]bool),
		exitReleased:  make(map[*lockClass]bool),
		consumed:      make(map[*ast.CallExpr]bool),
	}
	s.walkStmt(node.Decl.Body)

	// Deferred events run at return, in reverse registration order.
	deferred := s.deferred
	s.deferred = nil
	for i := len(deferred) - 1; i >= 0; i-- {
		ev := deferred[i]
		switch {
		case ev.release != nil:
			s.release(ev.release)
		case ev.lit != nil:
			s.walkStmt(ev.lit)
		default:
			if edges := node.callEdges[ev.call]; len(edges) > 0 {
				if s.v.onCall != nil {
					s.v.onCall(edges, ev.call, s.held)
				}
				s.applyCalleeSummaries(edges)
			}
		}
	}

	sum := &lockSummary{exitHeld: make(map[*lockClass]bool), exitReleased: s.exitReleased}
	for c, info := range s.held {
		if !info.fromEntry {
			sum.exitHeld[c] = true
		}
	}
	return sum
}

func (s *flowState) acquire(op lockOp, call *ast.CallExpr) {
	if s.v.onAcquire != nil {
		s.v.onAcquire(op, call, s.held)
	}
	if _, already := s.held[op.class]; !already {
		s.held[op.class] = heldInfo{pos: call.Pos()}
	}
	s.acquiredLocal[op.class] = true
}

func (s *flowState) release(c *lockClass) {
	delete(s.held, c)
	if !s.acquiredLocal[c] {
		s.exitReleased[c] = true
	}
}

// applyCalleeSummaries folds callee net effects into the held set. For
// multi-target (interface) calls the acquired set is the union and the
// released set the intersection — both conservative toward "held".
func (s *flowState) applyCalleeSummaries(edges []Edge) {
	acquired := make(map[*lockClass]bool)
	var released map[*lockClass]bool
	any := false
	for _, e := range edges {
		if e.Kind == EdgeGo {
			continue // new goroutine: effects don't land on this one
		}
		sum := s.sums[e.Callee]
		if sum == nil {
			continue
		}
		any = true
		for c := range sum.exitHeld {
			acquired[c] = true
		}
		if released == nil {
			released = make(map[*lockClass]bool)
			for c := range sum.exitReleased {
				released[c] = true
			}
		} else {
			for c := range released {
				if !sum.exitReleased[c] {
					delete(released, c)
				}
			}
		}
	}
	if !any {
		return
	}
	for c := range acquired {
		if _, already := s.held[c]; !already {
			s.held[c] = heldInfo{}
		}
		s.acquiredLocal[c] = true
	}
	for c := range released {
		s.release(c)
	}
}

// tryLockCall matches expr as a (possibly negated) TryLock call on a
// registered lock, returning the call, its op, and whether it was negated.
func (s *flowState) tryLockCall(expr ast.Expr) (*ast.CallExpr, lockOp, bool, bool) {
	neg := false
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		neg = true
		e = ast.Unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, lockOp{}, false, false
	}
	op, ok := s.g.locks.classify(s.info, call)
	if !ok || !op.try || !op.acquire {
		return nil, lockOp{}, false, false
	}
	return call, op, neg, true
}

func (s *flowState) walkStmt(stmt ast.Stmt) {
	switch st := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			s.walkStmt(sub)
		}
	case *ast.ExprStmt:
		s.walkExpr(st.X)
	case *ast.IfStmt:
		s.walkStmt(st.Init)
		// Pattern: if x.TryLock() { body } — held only inside body.
		if call, op, neg, ok := s.tryLockCall(st.Cond); ok {
			s.consumed[call] = true
			if !neg {
				// The hold is scoped to the body: restoring afterward may
				// miss a fall-through that keeps the lock, but the
				// prevailing NR idiom releases before the brace, and the
				// alternative (held forever after) flags every later
				// acquisition in the function.
				saved := s.held.clone()
				savedLocal := cloneClassSet(s.acquiredLocal)
				s.acquire(op, call)
				s.walkStmt(st.Body)
				s.held = saved
				s.acquiredLocal = savedLocal
				s.walkStmt(st.Else)
				return
			}
			// Pattern: if !x.TryLock() { bail } — held after the if when
			// the body leaves the scope.
			s.walkStmt(st.Body)
			s.walkStmt(st.Else)
			if st.Body != nil && terminates(st.Body.List) {
				s.acquire(op, call)
			}
			return
		}
		s.walkExpr(st.Cond)
		s.walkAlts(func() { s.walkStmt(st.Body) }, func() { s.walkStmt(st.Else) })
	case *ast.ForStmt:
		s.walkStmt(st.Init)
		// Pattern: for !x.TryLock() { spin } — a blocking acquisition.
		if call, op, neg, ok := s.tryLockCall(st.Cond); ok && neg {
			s.consumed[call] = true
			s.walkStmt(st.Body)
			s.walkStmt(st.Post)
			op.try = false // spinning until acquired blocks like Lock
			s.acquire(op, call)
			return
		}
		s.walkExpr(st.Cond)
		s.walkStmt(st.Body)
		s.walkStmt(st.Post)
	case *ast.RangeStmt:
		if s.v.onNode != nil {
			s.v.onNode(st, s.held)
		}
		s.walkExpr(st.X)
		s.walkStmt(st.Body)
	case *ast.SwitchStmt:
		s.walkStmt(st.Init)
		s.walkExpr(st.Tag)
		s.walkClauses(st.Body)
	case *ast.TypeSwitchStmt:
		s.walkStmt(st.Init)
		s.walkStmt(st.Assign)
		s.walkClauses(st.Body)
	case *ast.SelectStmt:
		if s.v.onNode != nil {
			s.v.onNode(st, s.held)
		}
		s.walkClauses(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			s.walkExpr(e)
		}
		for _, sub := range st.Body {
			s.walkStmt(sub)
		}
	case *ast.CommClause:
		s.walkStmt(st.Comm)
		for _, sub := range st.Body {
			s.walkStmt(sub)
		}
	case *ast.DeferStmt:
		for _, arg := range st.Call.Args {
			s.walkExpr(arg)
		}
		if op, ok := s.g.locks.classify(s.info, st.Call); ok {
			if !op.acquire {
				s.deferred = append(s.deferred, deferEvent{release: op.class})
			} else {
				s.acquire(op, st.Call) // deferred acquire: treat as immediate
			}
			return
		}
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			// Deferred literal: its body runs at return, with whatever is
			// held there; replay it at end-of-body.
			s.deferred = append(s.deferred, deferEvent{lit: lit.Body})
			return
		}
		s.deferred = append(s.deferred, deferEvent{call: st.Call})
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			s.walkExpr(arg)
		}
		// The spawned call runs on another goroutine: no held effects here.
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.walkExpr(e)
		}
		for _, e := range st.Lhs {
			s.walkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.walkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.walkExpr(e)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		s.walkStmt(st.Stmt)
	case *ast.SendStmt:
		if s.v.onNode != nil {
			s.v.onNode(st, s.held)
		}
		s.walkExpr(st.Chan)
		s.walkExpr(st.Value)
	case *ast.IncDecStmt:
		s.walkExpr(st.X)
	}
}

// walkExpr visits an expression, processing lock operations and calls.
func (s *flowState) walkExpr(expr ast.Expr) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && s.v.onNode != nil {
				s.v.onNode(n, s.held)
			}
		case *ast.FuncLit:
			// The literal's body runs inline (or as a stored closure on
			// this goroutine); walk it with statement semantics so nested
			// go/defer are classified correctly.
			s.walkStmt(n.Body)
			return false
		case *ast.CallExpr:
			if s.consumed[n] {
				return true
			}
			if op, ok := s.g.locks.classify(s.info, n); ok {
				switch {
				case !op.acquire:
					s.release(op.class)
				case op.try:
					// Unscoped TryLock (result stored in a variable):
					// branch unknown, leave the held set alone.
				default:
					s.acquire(op, n)
				}
				return true
			}
			if edges := s.node.callEdges[n]; len(edges) > 0 {
				if s.v.onCall != nil {
					s.v.onCall(edges, n, s.held)
				}
				s.applyCalleeSummaries(edges)
			}
			return true
		}
		return true
	})
}

func cloneClassSet(m map[*lockClass]bool) map[*lockClass]bool {
	c := make(map[*lockClass]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// factsLocked computes (once) the converged lock facts. Caller holds g.mu.
func (g *Graph) factsLocked() *lockFacts {
	if g.lockFacts != nil {
		return g.lockFacts
	}
	facts := &lockFacts{
		sums:    make(map[*types.Func]*lockSummary),
		entry:   make(map[*types.Func]heldSet),
		witness: make(map[*types.Func]map[*lockClass]witness),
	}
	nodes := g.sortedNodes()
	for _, n := range nodes {
		facts.sums[n.Fn] = &lockSummary{exitHeld: map[*lockClass]bool{}, exitReleased: map[*lockClass]bool{}}
		facts.entry[n.Fn] = heldSet{}
	}

	// Phase 1: function summaries to a fixpoint (callee effects feed
	// callers; the helpers involved are shallow, so this converges fast).
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, n := range nodes {
			sum := g.walkLockFlow(n, heldSet{}, facts.sums, flowVisitor{})
			if !sum.equal(facts.sums[n.Fn]) {
				facts.sums[n.Fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: may-hold-at-entry sets over call edges (everything except
	// go-spawns: a new goroutine starts with no inherited locks).
	work := make([]*FuncNode, len(nodes))
	copy(work, nodes)
	inWork := make(map[*types.Func]bool)
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n.Fn] = false
		g.walkLockFlow(n, facts.entry[n.Fn], facts.sums, flowVisitor{
			onCall: func(edges []Edge, call *ast.CallExpr, held heldSet) {
				if len(held) == 0 {
					return
				}
				for _, e := range edges {
					if e.Kind == EdgeGo {
						continue
					}
					callee := g.funcs[e.Callee]
					if callee == nil {
						continue
					}
					entry := facts.entry[e.Callee]
					grew := false
					for c := range held {
						if _, ok := entry[c]; ok {
							continue
						}
						entry[c] = heldInfo{fromEntry: true}
						w := facts.witness[e.Callee]
						if w == nil {
							w = make(map[*lockClass]witness)
							facts.witness[e.Callee] = w
						}
						w[c] = witness{caller: n.Fn, pos: e.Pos}
						grew = true
					}
					if grew && !inWork[e.Callee] {
						inWork[e.Callee] = true
						work = append(work, callee)
					}
				}
			},
		})
	}
	g.lockFacts = facts
	return facts
}

// holderChain renders how a class came to be held entering fn:
// "outermost -> ... -> fn".
func (facts *lockFacts) holderChain(fn *types.Func, c *lockClass) string {
	chain := []*types.Func{fn}
	cur := fn
	for depth := 0; depth < 6; depth++ {
		w, ok := facts.witness[cur][c]
		if !ok || w.caller == nil {
			break
		}
		chain = append([]*types.Func{w.caller}, chain...)
		cur = w.caller
	}
	return chainString(chain)
}

// lockOrderResults computes (once) the module-wide lockorder diagnostics.
func (g *Graph) lockOrderResults() []globalDiag {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lockDiags != nil {
		return *g.lockDiags
	}
	facts := g.factsLocked()
	idx := g.locks
	var diags []globalDiag
	diags = append(diags, idx.declDiags...)

	// observed undeclared acquisition edges: held-class -> acquired-class.
	observed := make(map[obsKey]obsSite)

	for _, n := range g.sortedNodes() {
		node := n
		g.walkLockFlow(node, facts.entry[node.Fn], facts.sums, flowVisitor{
			onAcquire: func(op lockOp, call *ast.CallExpr, held heldSet) {
				if op.try {
					return // non-blocking: NR's helping exemption
				}
				if g.LineHas(call.Pos(), "lockok") {
					return
				}
				holdNote := func(c *lockClass, info heldInfo) string {
					if info.fromEntry {
						return fmt.Sprintf(" (%s held entering %s via %s)", c.name, funcString(node.Fn), facts.holderChain(node.Fn, c))
					}
					return ""
				}
				for c, info := range held {
					switch {
					case c == op.class:
						diags = append(diags, globalDiag{
							pkgPath: node.Pkg.PkgPath, pos: call.Pos(),
							msg: fmt.Sprintf("blocking re-acquisition of lock class %s while it may already be held%s; if the instances are proven distinct or the path unreachable, document with //nr:lockok", c.name, holdNote(c, info)),
						})
					case idx.less[op.class.name][c.name]:
						diags = append(diags, globalDiag{
							pkgPath: node.Pkg.PkgPath, pos: call.Pos(),
							msg: fmt.Sprintf("acquires lock class %s while holding %s: inverts declared order %s < %s%s", op.class.name, c.name, op.class.name, c.name, holdNote(c, info)),
						})
					case idx.less[c.name][op.class.name]:
						// Sanctioned by the declared order.
					default:
						key := obsKey{from: c, to: op.class}
						if _, ok := observed[key]; !ok {
							observed[key] = obsSite{node: node, pos: call.Pos(), note: holdNote(c, info)}
						}
					}
				}
			},
		})
	}

	// Cycles among undeclared pairs: SCC over the observed edges.
	diags = append(diags, lockCycleDiags(observed)...)

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].pkgPath != diags[j].pkgPath {
			return diags[i].pkgPath < diags[j].pkgPath
		}
		return diags[i].pos < diags[j].pos
	})
	g.lockDiags = &diags
	return diags
}

// obsKey / obsSite record one observed "acquired to while holding from"
// edge between classes with no declared relation, anchored at its first
// acquisition site.
type obsKey struct{ from, to *lockClass }
type obsSite struct {
	node *FuncNode
	pos  token.Pos
	note string
}

// lockCycleDiags finds cycles among observed undeclared acquisition edges
// (Tarjan SCC over class nodes) and reports each participating edge at its
// site: two undeclared classes acquired in both orders anywhere in the
// module is a potential deadlock even though neither order is "wrong" yet.
func lockCycleDiags(observed map[obsKey]obsSite) []globalDiag {
	adj := make(map[*lockClass][]*lockClass)
	var classes []*lockClass
	seen := make(map[*lockClass]bool)
	addNode := func(c *lockClass) {
		if !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	keys := make([]obsKey, 0, len(observed))
	for k := range observed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from.name != keys[j].from.name {
			return keys[i].from.name < keys[j].from.name
		}
		return keys[i].to.name < keys[j].to.name
	})
	for _, k := range keys {
		addNode(k.from)
		addNode(k.to)
		adj[k.from] = append(adj[k.from], k.to)
	}

	// Tarjan.
	index := make(map[*lockClass]int)
	low := make(map[*lockClass]int)
	onStack := make(map[*lockClass]bool)
	var stack []*lockClass
	sccOf := make(map[*lockClass]int)
	next, sccID := 0, 0
	var strong func(c *lockClass)
	strong = func(c *lockClass) {
		index[c] = next
		low[c] = next
		next++
		stack = append(stack, c)
		onStack[c] = true
		for _, d := range adj[c] {
			if _, ok := index[d]; !ok {
				strong(d)
				if low[d] < low[c] {
					low[c] = low[d]
				}
			} else if onStack[d] && index[d] < low[c] {
				low[c] = index[d]
			}
		}
		if low[c] == index[c] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				sccOf[top] = sccID
				if top == c {
					break
				}
			}
			sccID++
		}
	}
	for _, c := range classes {
		if _, ok := index[c]; !ok {
			strong(c)
		}
	}

	sccSize := make(map[int]int)
	for _, id := range sccOf {
		sccSize[id]++
	}
	var diags []globalDiag
	for _, k := range keys {
		if sccOf[k.from] != sccOf[k.to] || sccSize[sccOf[k.from]] < 2 {
			continue
		}
		// Name the cycle members for the message.
		var members []string
		for _, c := range classes {
			if sccOf[c] == sccOf[k.from] {
				members = append(members, c.name)
			}
		}
		site := observed[k]
		diags = append(diags, globalDiag{
			pkgPath: site.node.Pkg.PkgPath, pos: site.pos,
			msg: fmt.Sprintf("potential deadlock: acquiring %s while holding %s completes a lock cycle among undeclared classes {%s}%s; declare an order with //nr:lockorder or document with //nr:lockok",
				k.to.name, k.from.name, joinSorted(members), site.note),
		})
	}
	return diags
}

func joinSorted(names []string) string {
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// terminates reports whether a statement list cannot fall off its end —
// enough for the early-return idiom (return/break/continue/panic last).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}
