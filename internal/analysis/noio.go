package analysis

import (
	"go/ast"
	"go/types"
)

// NoIO checks that functions annotated //nr:hotpath-noio never touch the
// filesystem. The durability design (DESIGN.md §12) hinges on one
// invariant: operations do nothing for durability — the log follower reads
// the shared log on its own goroutine and alone pays for write(2)/fsync(2).
// The annotated roots are core's combine, publish, read and replay paths;
// one stray os call on any of them (or below: the trace ring, an observer)
// and every thread on the node stalls behind the disk — exactly the latency
// cliff group fsync exists to avoid.
//
// Flagged sites: calls to functions and methods declared in os, syscall,
// or io/ioutil (this covers *os.File methods — Write, Sync, ReadAt — since
// a method's declaring package is os). Callees are chased by the deep pass
// (deepfacts.go), but calls through interfaces (io.Writer) are invisible to
// both, so keep hot-path types concrete. A site that is provably cold (a
// failure path behind a CAS, a once-per-process fallback) is silenced with
// //nr:iook on the same line or the line above.
var NoIO = &Analyzer{
	Name: "noio",
	Doc:  "check //nr:hotpath-noio functions never call into os/syscall (no file I/O on hot paths)",
	Run:  runNoIO,
}

// ioPackages are stdlib packages whose calls mean the hot path has reached
// the operating system.
var ioPackages = map[string]bool{
	"os": true, "syscall": true, "io/ioutil": true,
}

func runNoIO(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Directives.FuncHas(fn, "hotpath-noio") {
				continue
			}
			checkNoIO(pass, fn)
			checkDeepIO(pass, fn)
		}
	}
	return nil
}

func checkNoIO(pass *Pass, fn *ast.FuncDecl) {
	scanIO(pass.Info, pass.Pkg, pass.Directives, fn, func(call *ast.CallExpr, what string) {
		pass.Reportf(call.Pos(), "call to %s in //nr:hotpath-noio function performs file I/O on a hot path", what)
	})
}

// scanIO finds calls into ioPackages in fn's body, skipping //nr:iook lines.
// It is decoupled from Pass so the deep-facts engine (deepfacts.go) can scan
// unannotated helpers in other packages.
func scanIO(info *types.Info, pkg *types.Package, dirs *Directives, fn *ast.FuncDecl, flag func(call *ast.CallExpr, what string)) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil || callee.Pkg() == nil || !ioPackages[callee.Pkg().Path()] {
			return true
		}
		if dirs.LineHas(call.Pos(), "iook") {
			return true
		}
		what := callee.Name()
		if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
			what = types.TypeString(recv.Type(), types.RelativeTo(pkg)) + "." + what
		} else {
			what = callee.Pkg().Name() + "." + what
		}
		flag(call, what)
		return true
	})
}

// staticCallee resolves the *types.Func a call statically dispatches to, or
// nil for builtins, conversions, and calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}
