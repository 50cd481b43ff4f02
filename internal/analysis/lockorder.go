package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks every lock-acquisition site in the module against a
// declared partial order. NR's deadlock-freedom argument is a lock-order
// argument: the combiner takes the combiner lock, then the replica writer
// lock, then (with persistence) the WAL appender lock — never the other way
// — and a reader that cannot take the combiner lock *helps* via TryLock
// instead of waiting (§5.3/§5.5), which is exactly why TryLock acquisitions
// are exempt from inversion reporting here.
//
// Locks are struct fields (or package vars) whose type is sync.Mutex,
// sync.RWMutex, or a module type with Lock/Unlock methods (rwlock.SpinMutex,
// StampedMutex, Distributed). A
// `//nr:lockorder <class>` directive on the field names its class; a
// `//nr:lockorder a < b < c` directive anywhere declares the order. The
// analyzer propagates may-hold sets through the call graph (including
// generic-interface edges — that is how the log follower's context reaches
// a user's nr.Codec) and reports: acquisitions inverting the declared
// order, blocking re-acquisition of a held class, and cycles among
// undeclared lock pairs. `//nr:lockok` on the acquisition line suppresses a
// documented exception (e.g. a branch proven unreachable while the class is
// held).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "check lock acquisitions against the //nr:lockorder declared partial order (interprocedural)",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	g := pass.Graph
	if g == nil {
		return nil
	}
	for _, d := range g.lockOrderResults() {
		if d.pkgPath == pass.Pkg.Path() {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
	return nil
}

// globalDiag is one diagnostic computed module-wide, tagged with the package
// whose Run call should report it.
type globalDiag struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

// lockClass is one named equivalence class of locks. Several lock instances
// (one combiner lock per replica) share a class; ordering is per class.
type lockClass struct {
	name string
	// spin marks classes whose lock is a busy-wait lock (SpinMutex /
	// StampedMutex): holding one forbids blocking (noblock.go).
	spin bool
	// syncBlocking marks classes backed by sync.Mutex/sync.RWMutex:
	// acquiring one parks the goroutine, so it is itself a blocking
	// operation in a no-block context.
	syncBlocking bool
	// declared marks classes named by a //nr:lockorder directive.
	declared bool
	pos      token.Pos
}

// lockIndex maps recognized lock objects to classes and holds the declared
// order. Built once per graph.
type lockIndex struct {
	// objs maps a lock field/var object to its class.
	objs map[types.Object]*lockClass
	// byName maps class name to class.
	byName map[string]*lockClass
	// less is the declared strict partial order, transitively closed:
	// less[a][b] means a must be acquired before b.
	less map[string]map[string]bool
	// declDiags are malformed/cyclic declaration diagnostics.
	declDiags []globalDiag
}

// lockMethodNames are the method names that acquire or release a lock.
var lockAcquireNames = map[string]bool{
	"Lock": true, "RLock": true, "RLockObserved": true,
}
var lockTryNames = map[string]bool{
	"TryLock": true, "TryRLock": true,
}
var lockReleaseNames = map[string]bool{
	"Unlock": true, "RUnlock": true,
}

// isSyncLock reports whether t (after deref) is sync.Mutex or sync.RWMutex.
func isSyncLock(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// isModuleLock reports whether t is a module-declared lock type: a named
// type (or interface) whose method set has Lock and Unlock.
func isModuleLock(t types.Type, g *Graph) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil || !g.isModulePkg(named.Obj().Pkg()) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	if types.IsInterface(named) {
		ms = types.NewMethodSet(named)
	}
	hasLock, hasUnlock := false, false
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Lock":
			hasLock = true
		case "Unlock":
			hasUnlock = true
		}
	}
	return hasLock && hasUnlock
}

// isSpinLock reports whether t is a busy-wait lock: rwlock.SpinMutex,
// rwlock.StampedMutex, or a struct embedding one. Holding such a lock
// forbids blocking — the spinner's CPU is the critical-section budget.
func isSpinLock(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Name() == "rwlock" &&
		(obj.Name() == "SpinMutex" || obj.Name() == "StampedMutex") {
		return true
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Embedded() && isSpinLock(f.Type()) {
			return true
		}
	}
	return false
}

// buildLockIndex registers every lock field/var in the graph's packages and
// parses //nr:lockorder declarations.
func buildLockIndex(g *Graph) *lockIndex {
	idx := &lockIndex{
		objs:   make(map[types.Object]*lockClass),
		byName: make(map[string]*lockClass),
		less:   make(map[string]map[string]bool),
	}

	classFor := func(name string, spin, syncBlocking, declared bool, pos token.Pos) *lockClass {
		if c, ok := idx.byName[name]; ok {
			if spin {
				c.spin = true
			}
			if syncBlocking {
				c.syncBlocking = true
			}
			if declared {
				c.declared = true
			}
			return c
		}
		c := &lockClass{name: name, spin: spin, syncBlocking: syncBlocking, declared: declared, pos: pos}
		idx.byName[name] = c
		return c
	}

	type orderPair struct {
		a, b    string
		pos     token.Pos
		pkgPath string
	}
	var pairs []orderPair

	for _, pkg := range g.pkgs {
		dirs := g.dirs[pkg]
		for _, f := range pkg.Files {
			// Order declarations can appear in any comment.
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, d := range parseDirectives(c) {
						if d.Name != "lockorder" || !strings.Contains(d.Args, "<") {
							continue
						}
						names := strings.Split(d.Args, "<")
						for i := range names {
							names[i] = strings.TrimSpace(names[i])
						}
						bad := false
						for _, n := range names {
							if n == "" {
								bad = true
							}
						}
						if bad || len(names) < 2 {
							idx.declDiags = append(idx.declDiags, globalDiag{
								pkgPath: pkg.PkgPath, pos: d.Pos,
								msg: fmt.Sprintf("malformed //nr:lockorder order declaration %q (want \"a < b\" or \"a < b < c\")", d.Args),
							})
							continue
						}
						for i := 0; i+1 < len(names); i++ {
							classFor(names[i], false, false, true, d.Pos)
							classFor(names[i+1], false, false, true, d.Pos)
							pairs = append(pairs, orderPair{names[i], names[i+1], d.Pos, pkg.PkgPath})
						}
					}
				}
			}

			// Lock fields (with optional class naming) and package vars.
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				switch gd.Tok {
				case token.TYPE:
					for _, spec := range gd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							idx.registerStruct(g, pkg, dirs, ts, classFor)
						}
					}
				case token.VAR:
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							obj, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							if !isSyncLock(obj.Type()) && !isModuleLock(obj.Type(), g) {
								continue
							}
							cname := pkg.Types.Name() + "." + name.Name
							idx.objs[obj] = classFor(cname, isSpinLock(obj.Type()), isSyncLock(obj.Type()), false, name.Pos())
						}
					}
				}
			}
		}
	}

	// Transitive closure + declared-cycle validation.
	addLess := func(a, b string) {
		m := idx.less[a]
		if m == nil {
			m = make(map[string]bool)
			idx.less[a] = m
		}
		m[b] = true
	}
	for _, p := range pairs {
		addLess(p.a, p.b)
	}
	names := make([]string, 0, len(idx.byName))
	for n := range idx.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, k := range names {
		for _, i := range names {
			if !idx.less[i][k] {
				continue
			}
			for _, j := range names {
				if idx.less[k][j] {
					addLess(i, j)
				}
			}
		}
	}
	for _, p := range pairs {
		if idx.less[p.b][p.a] || p.a == p.b {
			idx.declDiags = append(idx.declDiags, globalDiag{
				pkgPath: p.pkgPath, pos: p.pos,
				msg: fmt.Sprintf("//nr:lockorder declarations are cyclic: %s < %s conflicts with a declared %s < %s", p.a, p.b, p.b, p.a),
			})
		}
	}
	return idx
}

// registerStruct registers every lock-typed field of a struct type. Fields
// of types that are themselves locks (SpinMutex embedded in StampedMutex)
// are lock *implementation*, not separate locks, and are skipped wholesale.
// Iterating the type-checked struct handles named and embedded fields
// uniformly; the matching ast.Field (for the //nr:lockorder class
// directive) is found by position.
func (idx *lockIndex) registerStruct(g *Graph, pkg *Package, dirs *Directives, ts *ast.TypeSpec, classFor func(string, bool, bool, bool, token.Pos) *lockClass) {
	tobj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok || isModuleLock(tobj.Type(), g) {
		return
	}
	st, ok := tobj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	astSt, ok := ts.Type.(*ast.StructType)
	if !ok || astSt.Fields == nil {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if !isSyncLock(v.Type()) && !isModuleLock(v.Type(), g) {
			continue
		}
		name := pkg.Types.Name() + "." + ts.Name.Name + "." + v.Name()
		declared := false
		for _, field := range astSt.Fields.List {
			if field.Pos() > v.Pos() || v.Pos() > field.End() {
				continue
			}
			for _, d := range dirs.fields[field] {
				if d.Name == "lockorder" && d.Args != "" && !strings.Contains(d.Args, "<") {
					name = strings.Fields(d.Args)[0]
					declared = true
				}
			}
			break
		}
		idx.objs[v] = classFor(name, isSpinLock(v.Type()), isSyncLock(v.Type()), declared, v.Pos())
	}
}

// lockObjectForCall resolves the lock object a Lock/Unlock-family call
// operates on, or nil when the receiver is not a registered lock.
func (idx *lockIndex) lockObjectForCall(info *types.Info, call *ast.CallExpr) *lockClass {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Promoted method through embedded lock: follow the selection's field
	// path and use the last field traversed.
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return nil
			}
			f := st.Field(i)
			if c, ok := idx.objs[f]; ok {
				return c
			}
			t = f.Type()
		}
	}
	// Direct: the receiver expression names the lock field/var.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[x.Sel]; ok {
			if c, ok := idx.objs[obj]; ok {
				return c
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x]; ok {
			if c, ok := idx.objs[obj]; ok {
				return c
			}
		}
	}
	return nil
}

// lockOp classifies one call as a lock operation.
type lockOp struct {
	class   *lockClass
	acquire bool // acquire (Lock/RLock) vs release
	try     bool // TryLock family
}

func (idx *lockIndex) classify(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	var op lockOp
	switch {
	case lockAcquireNames[name]:
		op.acquire = true
	case lockTryNames[name]:
		op.acquire, op.try = true, true
	case lockReleaseNames[name]:
	default:
		return lockOp{}, false
	}
	c := idx.lockObjectForCall(info, call)
	if c == nil {
		return lockOp{}, false
	}
	op.class = c
	return op, true
}
