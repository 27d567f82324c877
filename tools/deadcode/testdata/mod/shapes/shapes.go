// Package shapes is a fixture: a few functions a binary reaches, and a few
// it does not.
package shapes

import "fmt"

// Shape is the module's own interface: its methods are reached by name.
type Shape interface {
	Area() float64
}

// Square is a Shape.
type Square struct{ Side float64 }

// Area is only called through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer, which fmt calls without naming it.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.Side) }

// Perimeter is exported, but no binary calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Set shares a name with flag.Value's method, not its signature.
func (s *Square) Set(side float64) { s.Side = side }

// Describe is called by main.
func Describe(s Shape) string { return label(s) }

func label(s Shape) string { return fmt.Sprint(s) }

// Scale is exported and dead, and so is what only it calls.
func Scale(s Square, k float64) Square { return Square{Side: grow(s.Side, k)} }

func grow(x, k float64) float64 { return x * k }

// Unit is reached only through a package-level initialiser.
func Unit() Square { return Square{Side: 1} }
