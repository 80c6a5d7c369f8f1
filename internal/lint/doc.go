// Package lint implements optimalint, the repo-invariant static-analysis
// suite. It loads, parses and type-checks packages using only the standard
// library (go/parser, go/types, and `go list -e -export -json -deps` for
// package enumeration and export data — no golang.org/x/tools), and runs
// five analyzers. Each encodes an invariant this codebase has been bitten
// by, or depends on for correctness, that the Go compiler and vet do not
// check:
//
// # determinism
//
// The evaluation stack (internal/engine, search, dse, store, mult, exp) is
// content-addressed: cache keys, cached metrics, persisted store segments
// and search decisions must be byte-identical across runs, worker counts
// and processes. The analyzer flags the two classic ways that property is
// lost — iteration over a map whose body accumulates into output (a slice,
// string, or writer declared outside the loop) with no sort afterwards in
// the same function, and wall-clock or global math/rand reads. The store's
// compaction path is the motivating case: encoding records straight out of
// the index map produced segment bytes that differed between identical
// runs. Explicitly seeded generators (rand.New(rand.NewSource(seed))) and
// indexed writes (out[i] = v) are allowed.
//
// # claimsafety
//
// The engine's singleflight cache publishes entries carrying a done
// channel; every waiter blocks on it. A claim whose close(done) sits on
// the happy path only — not in a defer, with a fallible call between claim
// and close — strands all waiters forever if that call panics. This is the
// exact shape of a former engine bug where a store lookup between claim
// and close could leave a corner permanently "in flight". The analyzer
// flags plain closes (in internal/engine and internal/store) that are
// separated from their claim by a risky call.
//
// # errwrap
//
// fmt.Errorf with an error argument formatted as %v (or %s) severs the
// error chain: errors.Is(err, context.Canceled) stops seeing through it,
// and cancellation-aware callers misclassify shutdowns as failures. The
// analyzer requires %w whenever an argument implements error. Chains that
// should deliberately end carry a reasoned suppression instead.
//
// # lockedcall
//
// Methods of mutex-carrying types must not do expensive or blocking work
// while locked: backend Evaluate calls, net/http or net traffic, and
// blocking channel sends are flagged. The job event stream's
// drop-slow-subscriber idiom — a send inside select with a default case —
// is recognized and allowed.
//
// # unusedapi
//
// Code nothing uses gets deleted: an exported package-level func, type,
// var or const, or an exported method of an exported type, in a non-main
// package must be referenced by some loaded package outside _test.go files
// and outside its own declaration. A method whose name and signature match
// a method of an interface declared in or imported by the loaded packages
// (error included) counts as used, since it may be called through that
// interface. The driver hands every pass the whole loaded package set
// (Pass.Program), indexed once per Run; the analyzer judges only against
// that set, so it belongs on ./... runs — a narrower pattern makes every
// cross-package user invisible. An identifier whose user lives outside
// the run (the bench/ module, a root benchmark) is kept with a suppression
// that names the user.
//
// # Suppression
//
// A finding is silenced by a directive on its line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory — a directive without one, or naming an unknown
// analyzer, is itself a diagnostic (analyzer name "lint") and suppresses
// nothing. The reserved names "load" and "typecheck" report driver
// degradation: packages that fail to load or type-check become per-package
// diagnostics rather than aborting the run.
//
// The expected-diagnostic corpus lives under testdata/src; each fixture
// line carries a `// want "regexp"` annotation (or `// wantabove` for
// diagnostics on the preceding line) that the tests match one-to-one
// against the driver's output. The cmd/optimalint command wires all of
// this into a CI gate.
package lint
