// Package lib holds one function of each kind the reachability check
// tells apart.
package lib

// Reached is called by the program.
func Reached() int { return 2 }

// TestOnly is exported, but only its own test calls it.
func TestOnly() int { return 3 }

// Seam is called only by tests, and allowlisted.
func Seam() int { return seamValue() }

func seamValue() int { return 4 }

// Shape is implemented by Square.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

// Area is reached only through the Shape interface.
func (s Square) Area() int { return s.Side * s.Side }
