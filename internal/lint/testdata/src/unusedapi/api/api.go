// Package api is the expected-diagnostic corpus for the unused-API
// analyzer: exports a sibling package uses, next to exports only a test,
// an uncalled method or their own body reach.
package api

import "fmt"

// Used is called by the sibling package user.
func Used() int { return 1 }

// TestOnly is referenced only from api_test.go, which is not a user.
func TestOnly() int { return 2 } // want "func TestOnly has no non-test user"

// Recursive calls only itself: its own declaration is not a user.
func Recursive(n int) int { // want "func Recursive has no non-test user"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Meter is used by the sibling package user.
type Meter struct{ n int }

// Count is called by the sibling package user.
func (m *Meter) Count() int { return m.n }

// Halve is an uncalled exported method that matches no interface.
func (m *Meter) Halve() int { return m.n / 2 } // want "method Meter.Halve has no non-test user"

// String satisfies fmt.Stringer, so it counts as used.
func (m *Meter) String() string { return fmt.Sprint(m.n) }

//lint:ignore unusedapi the fixture's suppression case: a reasoned directive names the user
func Suppressed() int { return 3 }

//lint:ignore unusedapi
func Unreasoned() int { return 4 } // want "func Unreasoned has no non-test user" // wantabove "has no reason"
