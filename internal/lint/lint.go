// lint.go is the analysis driver core: the Package/Pass/Analyzer types,
// diagnostic collection, and the //lint:ignore suppression machinery.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message. The driver's own complaints (load failures,
// type-check errors, malformed suppressions) use the reserved analyzer
// names "load", "typecheck" and "lint".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, parsed and type-checked target package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// TypeErrors holds the type-check failures. A package with type errors
	// is reported as such and skipped by the analyzers: their type-driven
	// queries would answer nonsense over a partial Info.
	TypeErrors []Diagnostic
}

// Pass is the per-(analyzer, package) unit of work handed to Analyzer.Run.
// Report appends a raw diagnostic; the driver applies suppressions
// afterwards.
type Pass struct {
	*Package
	// Program is the whole package set of the Run, for analyzers whose
	// verdict on one package depends on the others.
	Program  *Program
	diags    *[]Diagnostic
	analyzer string
}

// Program is the loaded package set one Run analyzes. Cross-package facts
// are indexed on first use and shared by every pass of the Run.
type Program struct {
	Packages []*Package
	api      *apiIndex
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker. InScope gates it per package: the
// determinism rules, for example, apply only to the packages whose outputs
// must be byte-reproducible, not to the whole tree.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by optimalint -list.
	Doc string
	// InScope reports whether the analyzer applies to the package at the
	// given import path. Corpus packages (under a testdata directory) are
	// always in scope, so the expected-diagnostic fixtures exercise every
	// analyzer regardless of the repo scoping; see inScope.
	InScope func(pkgPath string) bool
	Run     func(*Pass)
}

// inScope wraps an import-path-suffix scope rule with the corpus override.
func inScope(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		if strings.Contains(pkgPath, "/testdata/") {
			return true
		}
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}

// everywhere is the scope of analyzers that apply to every target package.
func everywhere(string) bool { return true }

// Analyzers returns the OPTIMA suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		ClaimSafetyAnalyzer(),
		ErrWrapAnalyzer(),
		LockedCallAnalyzer(),
		UnusedAPIAnalyzer(),
	}
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
	malformed string // non-empty: the driver diagnostic to emit
}

const ignorePrefix = "lint:ignore"

// parseIgnores extracts the //lint:ignore directives of a file, keyed by
// the line they suppress: the directive's own line, so both end-of-line
// placement and whole-line placement above the flagged statement work (the
// latter via the line+1 lookup in suppressed).
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool) map[int]*ignoreDirective {
	out := map[int]*ignoreDirective{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			pos := fset.Position(c.Pos())
			d := &ignoreDirective{pos: pos, analyzers: map[string]bool{}}
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				d.malformed = "lint:ignore directive names no analyzer and gives no reason"
			case len(fields) == 1:
				d.malformed = fmt.Sprintf("lint:ignore %s has no reason; a suppression must say why the invariant does not apply", fields[0])
			default:
				for _, name := range strings.Split(fields[0], ",") {
					if !known[name] {
						d.malformed = fmt.Sprintf("lint:ignore names unknown analyzer %q", name)
					}
					d.analyzers[name] = true
				}
				d.reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
			}
			out[pos.Line] = d
		}
	}
	return out
}

// Run executes every in-scope analyzer over every package, applies the
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position. Packages that failed to type-check contribute their
// type-check diagnostics instead of analyzer findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	prog := &Program{Packages: pkgs}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			diags = append(diags, pkg.TypeErrors...)
			continue
		}
		ignores := map[string]map[int]*ignoreDirective{} // filename -> line -> directive
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			ignores[name] = parseIgnores(pkg.Fset, f, known)
		}

		var raw []Diagnostic
		for _, a := range analyzers {
			if !a.InScope(pkg.Path) {
				continue
			}
			a.Run(&Pass{Package: pkg, Program: prog, diags: &raw, analyzer: a.Name})
		}
		for _, d := range raw {
			if !suppressed(ignores[d.Pos.Filename], d) {
				diags = append(diags, d)
			}
		}
		// Malformed directives are findings themselves — a reasonless
		// suppression is exactly the reviewer folklore this tool replaces.
		for _, byLine := range ignores {
			for _, dir := range byLine {
				if dir.malformed != "" {
					diags = append(diags, Diagnostic{Pos: dir.pos, Analyzer: "lint", Message: dir.malformed})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppressed reports whether a well-formed directive on the diagnostic's
// line, or on the line above it, names the diagnostic's analyzer.
func suppressed(byLine map[int]*ignoreDirective, d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := byLine[line]; dir != nil && dir.malformed == "" && dir.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}
