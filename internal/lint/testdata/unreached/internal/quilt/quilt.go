// Package quilt pins the unreached analyzer in both directions: every
// function here without a want, exported or not, is reached, tagged,
// suppressed or an init function.
package quilt

import "fmt"

// Orphan has no caller anywhere.
func Orphan() int { return 1 } // want `quilt\.Orphan has no non-test caller`

// TestOnly is called only from quilt_test.go, which the loader never
// parses.
func TestOnly() int { return 2 } // want `quilt\.TestOnly has no non-test caller`

// Countdown calls only itself; a use inside its own body does not count.
func Countdown(n int) int { // want `quilt\.Countdown has no non-test caller`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Fig3b has no caller but reproduces a named result.
//
// Paper: Figure 3b.
func Fig3b() int { return 3 }

// Bench is called only from a separate benchmark module.
//
//crnlint:ignore unreached the benchmark module calls it
func Bench() int { return 4 }

// Func is a function value with a period.
type Func struct{ n int }

// String is reached through fmt.Stringer, which the type checker's use
// map cannot see.
func (f Func) String() string { return fmt.Sprintf("f%d", f.n) }

// Eval is called from another package.
func (f Func) Eval() int { return f.n }

// Period has no caller.
func (f Func) Period() int { return f.n } // want `quilt\.Func\.Period has no non-test caller`

// Used is called from another package.
func Used() Func { return Func{n: five()} }

// five is unexported and called by Used.
func five() int { return 5 }

// orphan is unexported and has no caller anywhere.
func orphan() int { return 6 } // want `quilt\.orphan has no non-test caller`

// scale is an unexported method with no caller.
func (f Func) scale() int { return 2 * f.n } // want `quilt\.Func\.scale has no non-test caller`

// init runs without a caller.
func init() { _ = five() }
