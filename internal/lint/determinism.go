// determinism.go checks the invariant that makes the content-addressed
// cache and the persistent store sound: everything the deterministic
// packages compute or persist must be byte-identical across runs, worker
// counts and processes. Go map iteration order and wall-clock reads are the
// two ways that property has historically been lost.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose outputs are cache keys, cached
// values, persisted bytes, or search decisions — the byte-reproducibility
// surface of the evaluation stack.
var deterministicPkgs = []string{
	"internal/engine",
	"internal/search",
	"internal/dse",
	"internal/store",
	// The one binary form of a result, on disk and on the wire.
	"internal/codec",
	"internal/mult",
	"internal/exp",
	// The distributed coordinator/worker layer feeds the same cache and
	// store: a wire frame assembled in map order, or a result derived from
	// the wall clock, would break the byte-identity contract between a
	// local and a distributed run.
	"internal/remote",
}

// seededRandCtors are the math/rand functions that merely construct
// explicitly seeded generators; everything else on the package reads the
// shared global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// DeterminismAnalyzer flags, inside the deterministic packages:
//
//   - iteration over a map whose body accumulates into a slice, string or
//     writer declared outside the loop, with no sort call after the loop in
//     the same function — the accumulated output inherits Go's randomized
//     map order (the class of bug that would make a compacted store segment
//     differ byte-wise between two runs over identical data);
//   - calls to time.Now — wall-clock reads cannot participate in anything
//     reproducible;
//   - calls to the global math/rand generator — unseeded randomness; seeded
//     generators via rand.New(rand.NewSource(...)) are fine.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "determinism",
		Doc:     "deterministic packages must not derive output from map order, wall clock, or unseeded randomness",
		InScope: inScope(deterministicPkgs...),
		Run:     runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockAndRand(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(pass, n.Body)
				}
			}
			return true
		})
	}
}

// checkClockAndRand flags time.Now and global math/rand calls.
func checkClockAndRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, ok := packageOf(pass.Info, sel)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch {
	case pkgPath == "time" && name == "Now":
		pass.Reportf(call.Pos(), "time.Now in a deterministic package: wall-clock reads cannot feed reproducible results")
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandCtors[name]:
		pass.Reportf(call.Pos(), "global math/rand.%s in a deterministic package: use an explicitly seeded generator (rand.New(rand.NewSource(seed)))", name)
	}
}

// packageOf resolves sel's base to an imported package, returning its path.
func packageOf(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pkgName.Imported().Path(), true
}

// checkMapOrder walks one function body looking for map-range loops whose
// bodies accumulate output, then checks for a sort call later in the same
// body.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		acc, what := findAccumulation(pass, rs)
		if acc == token.NoPos {
			return true
		}
		if sortedAfter(pass, body, rs.End()) {
			return true
		}
		pass.Reportf(acc, "%s inside a map-range loop inherits the map's randomized iteration order; sort the keys first, or sort the result before it is returned or persisted", what)
		return true
	})
}

// findAccumulation reports the first order-sensitive accumulation in the
// loop body: an assignment that folds the loop variable's visit order into
// a variable declared outside the loop (x = f(x, ...), x += ...), or a
// write through an outside-declared writer (buf.WriteString, fmt.Fprintf).
// Indexed element writes (out[i] = v) are order-independent and not
// flagged.
func findAccumulation(pass *Pass, rs *ast.RangeStmt) (token.Pos, string) {
	var pos token.Pos
	var what string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || !declaredOutside(obj, rs) {
				return true
			}
			accumulates := n.Tok == token.ADD_ASSIGN ||
				(n.Tok == token.ASSIGN && refersTo(pass, n.Rhs[0], obj))
			if accumulates {
				pos, what = n.Pos(), "accumulation into "+id.Name
			}
		case *ast.CallExpr:
			if p, target := writerCall(pass, n, rs); p != token.NoPos {
				pos, what = p, "write to "+target
			}
		}
		return true
	})
	return pos, what
}

// writerCall matches buf.Write*/fmt.Fprint* calls whose sink is declared
// outside the loop.
func writerCall(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) (token.Pos, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return token.NoPos, ""
	}
	name := sel.Sel.Name
	if pkgPath, ok := packageOf(pass.Info, sel); ok {
		if pkgPath == "fmt" && (name == "Fprintf" || name == "Fprintln" || name == "Fprint") && len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil && declaredOutside(obj, rs) {
					return call.Pos(), "fmt." + name + " sink " + id.Name
				}
			}
		}
		return token.NoPos, ""
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil && declaredOutside(obj, rs) {
				return call.Pos(), id.Name + "." + name
			}
		}
	}
	return token.NoPos, ""
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement (loop variables and loop-local temporaries are inside).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// refersTo reports whether expr mentions obj — the x in x = append(x, ...).
func refersTo(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether any sort/slices call appears after pos in the
// function body — the "collect then sort" idiom that restores a canonical
// order before the result escapes.
func sortedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkgPath, ok := packageOf(pass.Info, sel); ok && (pkgPath == "sort" || pkgPath == "slices") {
				found = true
			}
		}
		return !found
	})
	return found
}
