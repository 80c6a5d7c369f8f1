// Command optimalint runs OPTIMA's repo-invariant static-analysis suite —
// the project-specific correctness properties that go vet cannot know
// about, each grounded in a bug this repo has actually shipped:
//
//	determinism   deterministic packages must not derive output from map
//	              iteration order, wall-clock reads, or unseeded randomness
//	claimsafety   a taken cache claim's done channel must close on every
//	              path (no panic window between claim and close)
//	errwrap       fmt.Errorf over an error value must use %w so
//	              errors.Is/As keep working across package boundaries
//	lockedcall    no evaluation, network call, or blocking channel send
//	              while holding a receiver's mutex
//	unusedapi     an exported identifier needs a non-test user among the
//	              loaded packages (judges only what it loads: run it on ./...)
//
// Usage:
//
//	optimalint [-list] [packages]
//
// Packages default to ./... (which, per the go tool's rules, excludes
// testdata trees — run `optimalint ./internal/lint/testdata/src/...` to see
// the expected-diagnostic corpus light up). Exit status is 0 when clean, 1
// when there are diagnostics, 2 when the package loader itself cannot run.
//
// Findings are suppressed line-by-line with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or the line above it. The reason is mandatory: a
// reasonless suppression is itself a diagnostic.
package main

import (
	"flag"
	"fmt"
	"os"

	"optima/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, loadDiags, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimalint:", err)
		os.Exit(2)
	}
	diags := append(loadDiags, lint.Run(pkgs, analyzers)...)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "optimalint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("optimalint: %d package(s) clean\n", len(pkgs))
}
