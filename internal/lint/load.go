// load.go loads, parses and type-checks the target packages with nothing
// beyond the standard library: `go list -e -export -json -deps` enumerates
// the packages and the compiled export data of their dependencies (built on
// demand from the module cache of the active toolchain), go/parser parses
// the target sources with comments, and go/types checks them against an
// importer that reads that export data. No golang.org/x/tools, matching the
// repo's zero-dependency ethos.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPackage mirrors the `go list -json` fields the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *listError
}

type listError struct {
	Pos string
	Err string
}

// Load resolves patterns (as the go tool understands them) in dir and
// returns the matched packages, parsed and type-checked. Failures degrade:
// a pattern or package that `go list` cannot load becomes a "load"
// diagnostic, a package that does not type-check carries "typecheck"
// diagnostics and is skipped by the analyzers — only an unrunnable go
// command is a hard error.
func Load(dir string, patterns []string) ([]*Package, []Diagnostic, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var roots []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}

	var diags []Diagnostic
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})

	var pkgs []*Package
	for _, r := range roots {
		if r.Error != nil {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: nonEmpty(r.Error.Pos, r.ImportPath)},
				Analyzer: "load",
				Message:  fmt.Sprintf("package %s failed to load: %s", r.ImportPath, r.Error.Err),
			})
			continue
		}
		if len(r.GoFiles) == 0 {
			continue
		}
		var paths []string
		for _, name := range r.GoFiles {
			paths = append(paths, filepath.Join(r.Dir, name))
		}
		pkgs = append(pkgs, checkPackage(fset, r.ImportPath, r.Dir, paths, imp))
	}
	return pkgs, diags, nil
}

// checkPackage parses and type-checks one package. Both failure modes
// degrade into the package's TypeErrors — the analyzers skip such a
// package, the run continues.
func checkPackage(fset *token.FileSet, importPath, dir string, filePaths []string, imp types.Importer) *Package {
	pkg := &Package{Path: importPath, Dir: dir, Fset: fset}
	parseOK := true
	for _, path := range filePaths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.TypeErrors = append(pkg.TypeErrors, Diagnostic{
				Pos:      token.Position{Filename: path},
				Analyzer: "typecheck",
				Message:  fmt.Sprintf("package %s does not parse: %v", importPath, err),
			})
			parseOK = false
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if parseOK {
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
				if te, ok := err.(types.Error); ok {
					d.Pos = te.Fset.Position(te.Pos)
					d.Message = te.Msg
				}
				pkg.TypeErrors = append(pkg.TypeErrors, d)
			},
		}
		pkg.Pkg, _ = conf.Check(importPath, fset, pkg.Files, pkg.Info)
	}
	return pkg
}

func nonEmpty(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}
