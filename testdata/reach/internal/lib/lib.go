// Package lib holds one function, method and option field of each kind
// the reachability and option checks tell apart.
package lib

// Reached is called by the program.
func Reached() int { return 2 }

// TestOnly is exported, but only its own test calls it.
func TestOnly() int { return 3 }

// Seam is called only by tests, and allowlisted.
func Seam() int { return seamValue() }

func seamValue() int { return 4 }

// Shape is implemented by Square and Ghost.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

// Area is reached only through the Shape interface.
func (s Square) Area() int { return s.Side * s.Side }

// Ghost is a Shape that nothing builds: only a blank assertion names it.
type Ghost struct{}

var _ Shape = Ghost{}

// Area is never reached.
func (Ghost) Area() int { return 0 }

// Config has one field of each kind the option check tells apart.
type Config struct {
	Set      int // the program sets it from its arguments
	TestOnly int // only lib_test.go sets it
	OneValue int // the program's only literal sets it to a constant
	Seam     int // allowlisted
}

// Sum is what the program runs with a Config.
func Sum(c Config) int { return c.Set + c.TestOnly + c.OneValue + c.Seam }
