// unusedapi.go checks that exported API has a user. The repo aims for the
// same numbers from the least code, and an exported identifier that only
// tests call is code nothing uses: it costs review and upkeep, and its
// tests pin behaviour no program reaches. The analyzer judges uses across
// the whole loaded package set, so it is only meaningful on a ./... run.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnusedAPIAnalyzer flags, in non-main packages, an exported package-level
// func, type, var or const, or an exported method of an exported type, that
// no loaded package references outside _test.go files and outside the
// identifier's own declaration (a type's own declaration includes its
// methods). A method whose name and signature match a method of an
// interface declared in or imported by the loaded packages — error
// included — counts as used: it may be called through that interface.
func UnusedAPIAnalyzer() *Analyzer {
	return &Analyzer{
		Name:    "unusedapi",
		Doc:     "an exported identifier needs a non-test user among the loaded packages (run on ./...: it judges only what is loaded)",
		InScope: everywhere,
		Run:     runUnusedAPI,
	}
}

// apiIndex is what unusedapi needs to know about the whole package set:
// the identifiers referenced from non-test code outside their own
// declaration, and every interface method an exported method may satisfy.
// Both are keyed by strings (package path, receiver, name, parameter
// types) because each package is type-checked against export data, so the
// same identifier is a different types.Object in every package that sees
// it.
type apiIndex struct {
	used         map[string]bool
	ifaceMethods map[string]bool
}

// apiIndex builds the index on first use; Run shares one Program across
// every pass, so it is built once per Run.
func (p *Program) apiIndex() *apiIndex {
	if p.api == nil {
		p.api = buildAPIIndex(p.Packages)
	}
	return p.api
}

func buildAPIIndex(pkgs []*Package) *apiIndex {
	idx := &apiIndex{used: map[string]bool{}, ifaceMethods: map[string]bool{}}
	idx.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			continue
		}
		idx.addInterfacesOf(pkg.Pkg, seen)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				idx.addInterface(it)
			}
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, decl := range declarations(f) {
				idx.addUses(pkg.Info, decl)
			}
		}
	}
	return idx
}

// addInterfacesOf records the methods of every named interface in pkg and,
// transitively, in the packages it imports.
func (idx *apiIndex) addInterfacesOf(pkg *types.Package, seen map[*types.Package]bool) {
	if pkg == nil || seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				idx.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		idx.addInterfacesOf(imp, seen)
	}
}

func (idx *apiIndex) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		idx.ifaceMethods[methodKey(it.Method(i))] = true
	}
}

// isTestFile reports whether f is a _test.go file, whose references do not
// make an identifier used.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// declarations splits a file into the units that count as one identifier's
// own declaration: a func or method, or one spec of a grouped declaration,
// so a const group's later entries may use its earlier ones.
func declarations(f *ast.File) []ast.Node {
	var out []ast.Node
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				out = append(out, spec)
			}
		}
	}
	return out
}

// addUses marks every identifier referenced in decl, except those decl
// itself declares: a recursive call or a type's methods naming the type do
// not make it used.
func (idx *apiIndex) addUses(info *types.Info, decl ast.Node) {
	own := map[string]bool{}
	for _, obj := range declaredObjects(info, decl) {
		own[objectKey(obj)] = true
		// A method's declaration is part of its receiver type's.
		if fn, ok := obj.(*types.Func); ok {
			if named := receiverNamed(fn); named != nil {
				own[objectKey(named.Obj())] = true
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			if key := objectKey(obj); key != "" && !own[key] {
				idx.used[key] = true
			}
		}
		return true
	})
}

// declaredObjects lists the objects one declaration unit declares: a func
// or method, a type, or the names of a var or const spec.
func declaredObjects(info *types.Info, decl ast.Node) []types.Object {
	var objs []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		objs = append(objs, info.Defs[d.Name])
	case *ast.TypeSpec:
		objs = append(objs, info.Defs[d.Name])
	case *ast.ValueSpec:
		for _, name := range d.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

// objectKey names a package-level object or a method of a named type
// independently of which type-check produced it; fields, locals and
// interface methods have no key.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		named := receiverNamed(fn)
		if named == nil {
			return ""
		}
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverNamed returns the named type a method is declared on, or nil for
// an interface method.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// methodKey is a method's name and signature: its parameter and result
// types qualified by package path, without parameter names.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func runUnusedAPI(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	idx := pass.Program.apiIndex()
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range declarations(f) {
			for _, obj := range declaredObjects(pass.Info, decl) {
				if obj == nil || !obj.Exported() || idx.used[objectKey(obj)] {
					continue
				}
				what := objectKind(obj) + obj.Name()
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					named := receiverNamed(fn)
					if named == nil || !named.Obj().Exported() || idx.ifaceMethods[methodKey(fn)] {
						continue
					}
					what = "method " + named.Obj().Name() + "." + fn.Name()
				}
				pass.Reportf(obj.Pos(), "exported %s has no non-test user among the loaded packages: delete it, or suppress with the name of its user", what)
			}
		}
	}
}

// objectKind is the report's noun for a package-level object, with the
// space before its name.
func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func "
	case *types.TypeName:
		return "type "
	case *types.Const:
		return "const "
	}
	return "var "
}
