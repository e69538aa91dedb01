// Package geom provides the 2-D geometry primitives used to place sensor
// nodes and measure distances between them. All randomness is driven by
// explicit sources so topologies are reproducible.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location on the deployment plane, in meters.
type Point struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance in meters between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Rect is an axis-aligned deployment area.
type Rect struct {
	W float64 // width in meters (x extent)
	H float64 // height in meters (y extent)
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// UniformPoints places n points uniformly at random inside r using rng.
func UniformPoints(rng *rand.Rand, r Rect, n int) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{X: rng.Float64() * r.W, Y: rng.Float64() * r.H})
	}
	return pts
}

// GridPoints places points on a regular grid with the given spacing,
// row-major from the origin, stopping after n points. It is useful for
// deterministic chain and lattice test topologies.
func GridPoints(n int, cols int, spacing float64) []Point {
	if cols <= 0 {
		cols = n
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		row := i / cols
		col := i % cols
		pts = append(pts, Point{X: float64(col) * spacing, Y: float64(row) * spacing})
	}
	return pts
}

// LinePoints places n points on a horizontal line with the given spacing,
// starting at the origin. Chain topologies use this.
func LinePoints(n int, spacing float64) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{X: float64(i) * spacing})
	}
	return pts
}
