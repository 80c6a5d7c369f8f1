// lockedcall.go checks lock hygiene on the hot paths: a method of a
// mutex-carrying type must not run an evaluation, perform network I/O, or
// block on a channel send while holding its receiver's lock. The engine's
// whole concurrency story depends on locks guarding only map/counter
// updates — an Evaluate call or a blocking send under e.mu would serialize
// the worker pool (or deadlock it against a waiter holding the same lock).
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockedCallAnalyzer flags, in any method whose receiver type carries a
// sync.Mutex/RWMutex field, while the receiver's lock is held:
//
//   - blocking channel sends (a send inside a select with a default branch
//     is non-blocking and allowed — the job event stream's
//     drop-slow-subscriber fan-out);
//   - calls to evaluation work (*Evaluate*, Multiply*) or net/http and net
//     functions.
//
// The tracking is source-order within the method body: Lock() starts the
// window, a plain Unlock() ends it, `defer Unlock()` extends it to the end
// of the body. Function literals are skipped — code in a spawned goroutine
// does not run under the caller's lock.
func LockedCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "lockedcall",
		Doc:     "no evaluation, network call, or blocking channel send while holding a receiver's mutex",
		InScope: everywhere,
		Run:     runLockedCall,
	}
}

func runLockedCall(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			if !receiverHasMutex(pass, fn) {
				continue
			}
			checkLockedWindow(pass, fn.Body)
		}
	}
}

// receiverHasMutex reports whether the method's receiver struct carries a
// sync.Mutex or sync.RWMutex field (named or embedded).
func receiverHasMutex(pass *Pass, fn *ast.FuncDecl) bool {
	t := pass.Info.TypeOf(fn.Recv.List[0].Type)
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
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkLockedWindow walks the method body in source order, tracking whether
// a mutex Lock is outstanding, and flags risky operations inside the
// window.
func checkLockedWindow(pass *Pass, body *ast.BlockStmt) {
	locked := false
	deferred := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, not under this lock
		case *ast.DeferStmt:
			if isLockCall(n.Call, "Unlock", "RUnlock") {
				deferred = true
			}
			return false // deferred code runs after the window
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if isLockCall(call, "Lock", "RLock") {
					locked = true
					return false
				}
				if isLockCall(call, "Unlock", "RUnlock") {
					if !deferred {
						locked = false
					}
					return false
				}
			}
		case *ast.SendStmt:
			if locked && !inSelectWithDefault(body, n) {
				pass.Reportf(n.Pos(), "blocking channel send while the receiver's mutex is held: a slow or absent receiver stalls every other method of this type (send outside the lock, or use a buffered non-blocking select)")
			}
		case *ast.CallExpr:
			if locked {
				if what, ok := heavyCall(pass, n); ok {
					pass.Reportf(n.Pos(), "%s while the receiver's mutex is held serializes all users of the lock; move the call outside the critical section", what)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isLockCall matches <expr>.mu.<name>() style calls where the final
// selector is one of names and the base mentions a mutex-ish field. The
// field check is lexical (Lock/Unlock methods promoted from sync types
// resolve to sync.Mutex methods, which is what matters).
func isLockCall(call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// inSelectWithDefault reports whether the send statement is a comm clause
// of a select that has a default branch — the non-blocking send idiom.
func inSelectWithDefault(body *ast.BlockStmt, send *ast.SendStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || found {
			return !found
		}
		hasDefault := false
		owns := false
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
			} else if cc.Comm == ast.Stmt(send) {
				owns = true
			}
		}
		if owns && hasDefault {
			found = true
		}
		return !found
	})
	return found
}

// heavyCall matches evaluation and network calls.
func heavyCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if pkgPath, ok := packageOf(pass.Info, sel); ok {
		if pkgPath == "net/http" || pkgPath == "net" {
			return "calling " + pkgPath + "." + name, true
		}
		return "", false
	}
	if strings.Contains(name, "Evaluate") || strings.HasPrefix(name, "Multiply") {
		return "calling " + name, true
	}
	return "", false
}
