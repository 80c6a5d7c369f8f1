package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot is where go list runs from in tests (the repo root).
const moduleRoot = "../.."

// corpusPattern matches every expected-diagnostic fixture package.
const corpusPattern = "./internal/lint/testdata/src/..."

// wantRe matches the corpus annotations: `// want "regex"` expects a
// diagnostic on the same line, `// wantabove "regex"` on the line above
// (used where the flagged construct is itself a comment — a malformed
// lint:ignore directive — so no second comment fits on its line).
var wantRe = regexp.MustCompile(`// want(above)? "([^"]*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// corpusExpectations scans the fixture sources for want annotations.
func corpusExpectations(t *testing.T) []*expectation {
	t.Helper()
	var out []*expectation
	root := filepath.Join(moduleRoot, "internal/lint/testdata/src")
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				exp := &expectation{file: abs, line: i + 1, re: regexp.MustCompile(m[2])}
				if m[1] == "above" {
					exp.line--
				}
				out = append(out, exp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no want annotations found in the corpus")
	}
	return out
}

// TestCorpus is the analyzer acceptance test: the driver over the fixture
// corpus must produce exactly the annotated diagnostics — every // want
// matched, nothing unexpected — plus the load-degradation diagnostic for
// the deliberately broken package.
func TestCorpus(t *testing.T) {
	pkgs, loadDiags, err := Load(moduleRoot, []string{corpusPattern})
	if err != nil {
		t.Fatal(err)
	}
	diags := append(loadDiags, Run(pkgs, Analyzers())...)
	if len(diags) == 0 {
		t.Fatal("corpus produced no diagnostics")
	}

	// The broken package must degrade to a diagnostic, not kill the run.
	var brokenDiag bool
	var rest []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "broken") || strings.Contains(d.Message, "/broken") {
			brokenDiag = true
			continue
		}
		rest = append(rest, d)
	}
	if !brokenDiag {
		t.Error("no diagnostic for the deliberately broken corpus package")
	}

	exps := corpusExpectations(t)
	matched := make([]bool, len(exps))
	for _, d := range rest {
		ok := false
		for i, exp := range exps {
			if matched[i] || exp.file != d.Pos.Filename || exp.line != d.Pos.Line {
				continue
			}
			if exp.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, exp := range exps {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", exp.file, exp.line, exp.re)
		}
	}
}

// TestCorpusCoversEveryAnalyzer guards the corpus against rot: each
// analyzer of the suite, and the driver's own "lint" diagnostics, must
// fire at least once over the fixtures.
func TestCorpusCoversEveryAnalyzer(t *testing.T) {
	pkgs, _, err := Load(moduleRoot, []string{corpusPattern})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, d := range Run(pkgs, Analyzers()) {
		fired[d.Analyzer] = true
	}
	for _, a := range Analyzers() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s produced no corpus diagnostics", a.Name)
		}
	}
	if !fired["lint"] {
		t.Error("no malformed-suppression (lint) diagnostics over the corpus")
	}
}

// TestRepoIsClean is the CI gate's in-process twin: the production tree
// must carry zero findings (every invariant holds or is suppressed with a
// reason). The bench module is linted too, as CI does: it is a separate
// module that ./... from the root never builds, so an API deletion that
// breaks it would otherwise pass.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	for _, dir := range []string{moduleRoot, filepath.Join(moduleRoot, "bench")} {
		pkgs, loadDiags, err := Load(dir, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Errorf("%s: no packages loaded", dir)
		}
		diags := append(loadDiags, Run(pkgs, Analyzers())...)
		for _, d := range diags {
			t.Errorf("repo finding: %s", d)
		}
	}
}

// TestLoadErrorDegrades: an unloadable pattern becomes a load diagnostic,
// not an error or a crash, and does not disturb other patterns.
func TestLoadErrorDegrades(t *testing.T) {
	pkgs, loadDiags, err := Load(moduleRoot, []string{"./no/such/dir", "./internal/lint/testdata/src/errwrap"})
	if err != nil {
		t.Fatalf("Load returned a hard error for a bad pattern: %v", err)
	}
	found := false
	for _, d := range loadDiags {
		if d.Analyzer == "load" {
			found = true
		}
	}
	if !found {
		t.Errorf("no load diagnostic for a nonexistent package; got %v", loadDiags)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "errwrap") {
		t.Errorf("good pattern not loaded alongside the bad one: %v", pkgs)
	}
	if diags := Run(pkgs, Analyzers()); len(diags) == 0 {
		t.Error("loaded package produced no findings despite corpus annotations")
	}
}

// failingImporter refuses every import, forcing type-check errors.
type failingImporter struct{}

func (failingImporter) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("no importer in this test")
}

// TestTypecheckFailureDegrades: a package that does not type-check carries
// per-package typecheck diagnostics, is skipped by the analyzers, and does
// not stop other packages from being analyzed.
func TestTypecheckFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"fmt\"\n\nfunc f() { fmt.Println(undefinedIdentifier) }\n"
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg := checkPackage(fset, "example.com/p", dir, []string{path}, failingImporter{})
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("no typecheck diagnostics for a package with type errors")
	}
	diags := Run([]*Package{pkg}, Analyzers())
	if len(diags) != len(pkg.TypeErrors) {
		t.Errorf("Run over a broken package: want its %d typecheck diagnostics, got %d: %v",
			len(pkg.TypeErrors), len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "typecheck" {
			t.Errorf("analyzer ran over a package with type errors: %s", d)
		}
	}
}

// TestParseFailureDegrades: unparsable source is a typecheck diagnostic
// too, not a crash.
func TestParseFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(path, []byte("package p\nfunc {{{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := checkPackage(token.NewFileSet(), "example.com/p", dir, []string{path}, failingImporter{})
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("no diagnostics for an unparsable file")
	}
}

// TestSuppressionScope: a reasoned directive suppresses only its named
// analyzer, only on its own and the preceding line. The fixture is
// import-free (map-order findings need no importer) and its import path
// opts into analyzer scope via the /testdata/ override.
func TestSuppressionScope(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func a(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore determinism fixture: a correctly reasoned suppression
		out = append(out, k)
	}
	return out
}

func b(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore errwrap names a different analyzer, so determinism still fires
		out = append(out, k)
	}
	return out
}

func c(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore determinism a blank line away from the finding, out of range

		out = append(out, k)
	}
	return out
}
`
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := checkPackage(token.NewFileSet(), "example.com/testdata/p", dir, []string{path}, failingImporter{})
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	diags := Run([]*Package{pkg}, Analyzers())
	var lines []int
	for _, d := range diags {
		if d.Analyzer == "determinism" {
			lines = append(lines, d.Pos.Line)
		}
	}
	// a() suppressed; b() (accumulation on line 16) and c() (line 26) not.
	if len(lines) != 2 || lines[0] != 16 || lines[1] != 26 {
		t.Errorf("suppression scope wrong: determinism findings at lines %v, want [16 26]", lines)
	}
}
