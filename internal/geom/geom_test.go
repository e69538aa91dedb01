package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{name: "same point", p: Point{1, 2}, q: Point{1, 2}, want: 0},
		{name: "unit x", p: Point{0, 0}, q: Point{1, 0}, want: 1},
		{name: "unit y", p: Point{0, 0}, q: Point{0, 1}, want: 1},
		{name: "3-4-5 triangle", p: Point{0, 0}, q: Point{3, 4}, want: 5},
		{name: "negative coords", p: Point{-1, -1}, q: Point{2, 3}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		p := Point{X: math.Mod(x1, 1e6), Y: math.Mod(y1, 1e6)}
		q := Point{X: math.Mod(x2, 1e6), Y: math.Mod(y2, 1e6)}
		return math.Abs(p.Dist(q)-q.Dist(p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistTriangleInequality(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(x1), clamp(y1)}
		b := Point{clamp(x2), clamp(y2)}
		c := Point{clamp(x3), clamp(y3)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointAdd(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{W: 400, H: 600}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"origin", Point{0, 0}, true},
		{"far corner", Point{400, 600}, true},
		{"center", Point{200, 300}, true},
		{"outside x", Point{401, 0}, false},
		{"outside y", Point{0, 601}, false},
		{"negative", Point{-1, 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestUniformPointsInArea(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Rect{W: 400, H: 600}
	pts := UniformPoints(rng, r, 500)
	if len(pts) != 500 {
		t.Fatalf("got %d points, want 500", len(pts))
	}
	for i, p := range pts {
		if !r.Contains(p) {
			t.Errorf("point %d = %v outside %v", i, p, r)
		}
	}
}

func TestUniformPointsDeterministic(t *testing.T) {
	a := UniformPoints(rand.New(rand.NewSource(42)), Rect{W: 100, H: 100}, 50)
	b := UniformPoints(rand.New(rand.NewSource(42)), Rect{W: 100, H: 100}, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLinePoints(t *testing.T) {
	pts := LinePoints(4, 50)
	want := []Point{{0, 0}, {50, 0}, {100, 0}, {150, 0}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestGridPoints(t *testing.T) {
	pts := GridPoints(6, 3, 10)
	want := []Point{{0, 0}, {10, 0}, {20, 0}, {0, 10}, {10, 10}, {20, 10}}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	// cols <= 0 falls back to a single row.
	line := GridPoints(3, 0, 5)
	if line[2] != (Point{10, 0}) {
		t.Errorf("GridPoints cols=0: point 2 = %v, want (10,0)", line[2])
	}
}
