package analysis

import (
	"go/ast"
	"go/types"
)

// SpinLoop checks the busy-wait discipline of functions annotated //nr:spin.
// NR spins in many places — combining slots, the distributed readers-writer
// lock's flags, log holes — and under Go's cooperative scheduler a spin loop
// that fails to yield can livelock the very thread it is waiting on (the §6
// stalled-combiner hazard, self-inflicted). Two rules:
//
//  1. Every condition-only or infinite `for` loop in an annotated function
//     must, on each path back to the loop head, either yield
//     (runtime.Gosched, time.Sleep, a channel operation, a blocking
//     Lock/RLock/Wait call) or do real work (any call other than the
//     spin-read set below). Pure spin reads — atomic Load/CompareAndSwap,
//     TryLock, Locked, the log/lock tail accessors Tail/Completed/
//     HeldSince/HeldFor, and the clock reads Now/Since/Before/After/Until
//     that deadline-polling waits are built from — do not count as
//     progress. A thread that polls `time.Now().Before(deadline)` waiting
//     for a flag is spinning exactly like one polling the flag alone, and
//     must Gosched so the thread it waits on can run.
//
//  2. An infinite loop (`for {}`) in a method of a type that owns a `stop`
//     channel or `poisoned` flag must reference that field or contain some
//     other exit (return/break): a background loop with neither outlives
//     Close and leaks.
//
// The analysis is path-insensitive over the AST (an if with no else is a
// fall-through path), so only functions whose loops are structured for it
// are annotated; loops whose yield depends on a flag variable (e.g. the
// dedicated combiner's `worked`) stay un-annotated by design.
var SpinLoop = &Analyzer{
	Name: "spinloop",
	Doc:  "check //nr:spin busy-wait loops yield on every path and infinite loops honor stop",
	Run:  runSpinLoop,
}

// spinReadNames are call names that read shared state without making
// progress; a path consisting only of these must yield.
var spinReadNames = map[string]bool{
	"Load": true, "CompareAndSwap": true, "TryLock": true, "Locked": true,
	"Tail": true, "Completed": true, "HeldSince": true, "HeldFor": true,
	// Clock reads: a bounded wait polling time.Now().Before(deadline) is a
	// busy-wait like any other. (`<-time.After(d)` still yields — the
	// channel receive counts, not the call.)
	"Now": true, "Since": true, "Before": true, "After": true, "Until": true,
}

// yieldNames are calls that give the scheduler (or another goroutine) a
// chance to run: explicit yields and blocking acquisitions.
var yieldNames = map[string]bool{
	"Gosched": true, "Sleep": true, "Lock": true, "RLock": true,
	"RLockObserved": true, "Wait": true, "WaitGet": true, "WaitGetObserved": true,
}

func runSpinLoop(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Directives.FuncHas(fn, "spin") {
				continue
			}
			s := &spinCheck{pass: pass}
			s.checkFunc(fn)
		}
	}
	return nil
}

type spinCheck struct {
	pass *Pass
}

func (s *spinCheck) checkFunc(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Init != nil || loop.Post != nil {
			return true // 3-clause and range loops make their own progress
		}
		s.checkLoop(fn, loop)
		return true
	})
}

func (s *spinCheck) checkLoop(fn *ast.FuncDecl, loop *ast.ForStmt) {
	// Rule 1: every fall-through path must yield or work.
	start := progress{}
	if loop.Cond != nil {
		start = s.exprProgress(loop.Cond, start)
	}
	falls, end := s.listFlow(loop.Body.List, start)
	if falls && !end.ok() {
		s.pass.Reportf(loop.Pos(),
			"busy-wait loop in //nr:spin function %s may spin to the loop head without yielding; call runtime.Gosched on every path", fn.Name.Name)
	}

	// Rule 2: infinite loops in stop-owning methods need an exit.
	if loop.Cond == nil && s.receiverHasStop(fn) && !loopHasExitOrStop(loop) {
		s.pass.Reportf(loop.Pos(),
			"infinite loop in //nr:spin method %s neither checks the receiver's stop/poisoned state nor has any other exit", fn.Name.Name)
	}
}

// progress tracks what a path has done since the loop head.
type progress struct {
	yielded bool // ran a yield call / channel op
	worked  bool // ran a call that is not a pure spin read
}

func (p progress) ok() bool { return p.yielded || p.worked }

func (p progress) merge(q progress) progress {
	return progress{yielded: p.yielded && q.yielded, worked: p.worked && q.worked}
}

// listFlow analyzes a statement list: falls reports whether control can run
// off the end, and end is the (path-conservative) progress at that point.
// Paths that leave the loop entirely (return, break, panic, goto) are not
// violations; a `continue` reached without progress is reported immediately.
func (s *spinCheck) listFlow(stmts []ast.Stmt, p progress) (falls bool, end progress) {
	for _, st := range stmts {
		var f bool
		f, p = s.stmtFlow(st, p)
		if !f {
			return false, p
		}
	}
	return true, p
}

func (s *spinCheck) stmtFlow(st ast.Stmt, p progress) (falls bool, end progress) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		p = s.exprProgress(st.X, p)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return false, p
			}
		}
		return true, p
	case *ast.ReturnStmt:
		return false, p
	case *ast.BranchStmt:
		// break/goto leave; continue reaches the loop head now.
		if st.Tok.String() == "continue" && !p.ok() {
			s.pass.Reportf(st.Pos(), "continue reaches the spin-loop head without yielding")
		}
		return false, p
	case *ast.IfStmt:
		if st.Init != nil {
			_, p = s.stmtFlow(st.Init, p)
		}
		p = s.exprProgress(st.Cond, p)
		tf, tp := s.listFlow(st.Body.List, p)
		ef, ep := true, p
		if st.Else != nil {
			ef, ep = s.stmtFlow(st.Else, p)
		}
		switch {
		case tf && ef:
			return true, tp.merge(ep)
		case tf:
			return true, tp
		case ef:
			return true, ep
		default:
			return false, p
		}
	case *ast.BlockStmt:
		return s.listFlow(st.List, p)
	case *ast.LabeledStmt:
		return s.stmtFlow(st.Stmt, p)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			p = s.exprProgress(e, p)
		}
		return true, p
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		return true, p
	case *ast.SendStmt:
		p.yielded = true
		return true, p
	case *ast.SelectStmt:
		// A select without default blocks; with default it may fall through
		// instantly, so it only counts if every case body does.
		hasDefault := false
		all := progress{yielded: true, worked: true}
		anyFalls := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			}
			q := p
			if !hasDefault || cc.Comm != nil {
				q.yielded = true
			}
			cf, cp := s.listFlow(cc.Body, q)
			if cf {
				anyFalls = true
				all = all.merge(cp)
			}
		}
		if !hasDefault {
			p.yielded = true
		}
		if !anyFalls {
			return false, p
		}
		if all.yielded || all.worked {
			return true, all
		}
		return true, p
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		// Conservative: a switch may fall through any case; require the
		// surrounding path to progress. Bodies are still scanned for nested
		// loops by checkFunc.
		if sw, ok := st.(*ast.SwitchStmt); ok && sw.Tag != nil {
			p = s.exprProgress(sw.Tag, p)
		}
		return true, p
	case *ast.ForStmt, *ast.RangeStmt:
		// A nested loop's own discipline is checked separately; for the
		// outer path it counts as whatever its body contains.
		if containsYield(st) {
			p.yielded = true
		}
		if s.containsWork(st) {
			p.worked = true
		}
		return true, p
	case *ast.DeferStmt, *ast.GoStmt:
		return true, p
	default:
		return true, p
	}
}

// exprProgress scans an expression for calls and channel receives, updating
// the path's progress.
func (s *spinCheck) exprProgress(e ast.Expr, p progress) progress {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				p.yielded = true
			}
		case *ast.CallExpr:
			switch s.classifyCall(n) {
			case callYield:
				p.yielded = true
			case callWork:
				p.worked = true
			}
		case *ast.FuncLit:
			return false // not executed here
		}
		return true
	})
	return p
}

type callClass int

const (
	callSpinRead callClass = iota
	callYield
	callWork
)

func (s *spinCheck) classifyCall(call *ast.CallExpr) callClass {
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := s.pass.Info.Uses[fun].(*types.Builtin); ok {
			return callSpinRead
		}
		if tv, ok := s.pass.Info.Types[fun]; ok && tv.IsType() {
			return callSpinRead // conversion
		}
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return callWork
	}
	if yieldNames[name] {
		return callYield
	}
	if spinReadNames[name] {
		return callSpinRead
	}
	return callWork
}

func containsYield(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && yieldNames[sel.Sel.Name] {
				found = true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && yieldNames[id.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (s *spinCheck) containsWork(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.classifyCall(call) == callWork {
			found = true
		}
		return !found
	})
	return found
}

// receiverHasStop reports whether fn's receiver struct owns a stop channel
// or poisoned flag.
func (s *spinCheck) receiverHasStop(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := s.pass.Info.Types[fn.Recv.List[0].Type].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "stop" {
			if _, isChan := f.Type().Underlying().(*types.Chan); isChan {
				return true
			}
		}
		if f.Name() == "poisoned" {
			return true
		}
	}
	return false
}

// loopHasExitOrStop reports whether the loop body mentions stop/poisoned or
// contains any return or break.
func loopHasExitOrStop(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "stop" || n.Sel.Name == "poisoned" {
				found = true
			}
		case *ast.Ident:
			if n.Name == "stop" || n.Name == "poisoned" {
				found = true
			}
		}
		return !found
	})
	return found
}
