package topo

import (
	"testing"
	"testing/quick"
)

func TestFatTreeShape(t *testing.T) {
	ft := NewFatTree(4, 3, 2)
	if ft.Nodes() != 12 {
		t.Fatalf("nodes = %d, want 12", ft.Nodes())
	}
	if ft.EdgeSwitches() != 3 || ft.SpineSwitches() != 2 {
		t.Fatal("switch counts wrong")
	}
	// 2 per node + 2 per edge-spine pair.
	if ft.NumLinks() != 2*12+2*3*2 {
		t.Fatalf("links = %d", ft.NumLinks())
	}
}

func TestFatTreeHops(t *testing.T) {
	ft := NewFatTree(4, 3, 2)
	if ft.Hops(0, 0) != 0 {
		t.Fatal("self hops should be 0")
	}
	if ft.Hops(0, 3) != 2 { // same edge switch
		t.Fatalf("same-edge hops = %d, want 2", ft.Hops(0, 3))
	}
	if ft.Hops(0, 4) != 4 { // different edge switch
		t.Fatalf("cross-edge hops = %d, want 4", ft.Hops(0, 4))
	}
}

func TestFatTreeRouteLengthMatchesHops(t *testing.T) {
	ft := NewFatTree(4, 3, 2)
	for a := 0; a < ft.Nodes(); a++ {
		for b := 0; b < ft.Nodes(); b++ {
			if got := len(ft.Route(a, b)); got != ft.Hops(a, b) {
				t.Fatalf("route(%d,%d) length %d != hops %d", a, b, got, ft.Hops(a, b))
			}
		}
	}
}

func TestFatTreeRouteLinksInRange(t *testing.T) {
	ft := NewFatTree(8, 6, 3)
	n := ft.NumLinks()
	for a := 0; a < ft.Nodes(); a += 5 {
		for b := 0; b < ft.Nodes(); b += 3 {
			for _, l := range ft.Route(a, b) {
				if int(l) < 0 || int(l) >= n {
					t.Fatalf("link %d out of range [0,%d)", l, n)
				}
			}
		}
	}
}

func TestFatTreeRouteSymmetricHops(t *testing.T) {
	ft := NewFatTree(8, 6, 3)
	for a := 0; a < ft.Nodes(); a++ {
		for b := 0; b < ft.Nodes(); b++ {
			if ft.Hops(a, b) != ft.Hops(b, a) {
				t.Fatalf("hop asymmetry %d %d", a, b)
			}
		}
	}
}

func TestFatTreeSpineSpreading(t *testing.T) {
	// Destinations on different edge switches should not all use the
	// same spine: D-mod-S routing spreads them.
	ft := NewFatTree(1, 4, 2)
	spines := map[LinkID]bool{}
	for b := 1; b < 4; b++ {
		r := ft.Route(0, b)
		spines[r[1]] = true // edge->spine link
	}
	if len(spines) < 2 {
		t.Fatalf("all routes used one spine uplink: %v", spines)
	}
}

func TestFatTreeBadNodePanics(t *testing.T) {
	ft := NewFatTree(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ft.Hops(0, 99)
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := NewTorus(3, 4, 5)
	for n := 0; n < tor.Nodes(); n++ {
		if got := tor.Index(tor.Coords(n)); got != n {
			t.Fatalf("round trip %d -> %d", n, got)
		}
	}
}

func TestTorusHopsKnown(t *testing.T) {
	tor := NewTorus(4, 4)
	// (0,0) to (2,2): 2+2 = 4 hops.
	if got := tor.Hops(0, tor.Index([]int{2, 2})); got != 4 {
		t.Fatalf("hops = %d, want 4", got)
	}
	// Wraparound: (0,0) to (3,0) is 1 hop backwards.
	if got := tor.Hops(0, tor.Index([]int{3, 0})); got != 1 {
		t.Fatalf("wrap hops = %d, want 1", got)
	}
}

func TestTorusRouteLengthMatchesHops(t *testing.T) {
	tor := NewTorus(3, 3, 2)
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			if got := len(tor.Route(a, b)); got != tor.Hops(a, b) {
				t.Fatalf("route(%d,%d) len %d != hops %d", a, b, got, tor.Hops(a, b))
			}
		}
	}
}

func TestTorusRouteEndsAtDestination(t *testing.T) {
	// Walk the route link by link and confirm we land on b. Links are
	// node*2D + 2d + dir, so we can decode each step.
	tor := NewTorus(3, 4)
	d := len(tor.Dims())
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			cur := a
			for _, l := range tor.Route(a, b) {
				node := int(l) / (2 * d)
				rem := int(l) % (2 * d)
				dim, dir := rem/2, rem%2
				if node != cur {
					t.Fatalf("route link from wrong node: %d != %d", node, cur)
				}
				cur = tor.neighbor(cur, dim, dir)
			}
			if cur != b {
				t.Fatalf("route(%d,%d) ends at %d", a, b, cur)
			}
		}
	}
}

func TestTorusHopsSymmetric(t *testing.T) {
	tor := NewTorus(5, 3)
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			if tor.Hops(a, b) != tor.Hops(b, a) {
				t.Fatalf("asymmetric hops between %d and %d", a, b)
			}
		}
	}
}

func TestTorusTriangleInequalityProperty(t *testing.T) {
	tor := NewTorus(4, 3, 2)
	f := func(ar, br, cr uint16) bool {
		n := tor.Nodes()
		a, b, c := int(ar)%n, int(br)%n, int(cr)%n
		return tor.Hops(a, c) <= tor.Hops(a, b)+tor.Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorus5DVulcanScale(t *testing.T) {
	// A Vulcan-like 5-D torus; check basic sanity at scale.
	tor := NewTorus(4, 4, 4, 4, 2)
	if tor.Nodes() != 512 {
		t.Fatalf("nodes = %d", tor.Nodes())
	}
	diam := MaxHops(tor)
	want := 2 + 2 + 2 + 2 + 1 // per-dimension max ring distance
	if diam != want {
		t.Fatalf("diameter = %d, want %d", diam, want)
	}
}

func TestMaxHopsFatTree(t *testing.T) {
	ft := NewFatTree(4, 3, 2)
	if MaxHops(ft) != 4 {
		t.Fatalf("diameter = %d, want 4", MaxHops(ft))
	}
}

// torusExactDiameter is the closed-form torus diameter: each dimension
// contributes its largest ring distance, floor(d/2).
func torusExactDiameter(dims ...int) int {
	sum := 0
	for _, d := range dims {
		sum += d / 2
	}
	return sum
}

func TestDiameterMatchesExhaustiveMaxHops(t *testing.T) {
	for npe := 1; npe <= 6; npe++ {
		for edges := 1; edges <= 6; edges++ {
			for spines := 1; spines <= 3; spines++ {
				ft := NewFatTree(npe, edges, spines)
				if got, want := ft.Diameter(), MaxHops(ft); got != want {
					t.Errorf("%s: Diameter = %d, exhaustive MaxHops = %d", ft.Name(), got, want)
				}
			}
		}
	}
	shapes := [][]int{
		{1}, {2}, {3}, {7}, {256},
		{1, 1}, {2, 3}, {4, 4}, {5, 3}, {16, 16},
		{2, 2, 2}, {3, 4, 5}, {6, 6, 7},
		{4, 4, 4, 4}, {2, 3, 2, 3, 2}, {4, 4, 4, 2, 2},
	}
	for _, dims := range shapes {
		tor := NewTorus(dims...)
		if tor.Nodes() > 256 {
			t.Fatalf("%s is past the exhaustive range", tor.Name())
		}
		want := MaxHops(tor)
		if got := tor.Diameter(); got != want {
			t.Errorf("%s: Diameter = %d, exhaustive MaxHops = %d", tor.Name(), got, want)
		}
		if exact := torusExactDiameter(dims...); want != exact {
			t.Errorf("%s: exhaustive MaxHops = %d, closed form = %d", tor.Name(), want, exact)
		}
	}
}

func TestFatTreeDiameterMatchesSampledMaxHops(t *testing.T) {
	shapes := []struct{ npe, edges, spines int }{
		{257, 1, 1}, {1000, 1, 4}, // one edge switch
		{1, 257, 1}, {1, 300, 16}, // one node per edge switch
		{129, 2, 1}, {255, 2, 2}, {256, 2, 1}, {86, 3, 2}, // few, wide edge switches
		{32, 9, 2}, {36, 83, 16}, {32, 94, 16}, {32, 2048, 256},
	}
	for _, s := range shapes {
		ft := NewFatTree(s.npe, s.edges, s.spines)
		if ft.Nodes() <= 256 {
			t.Fatalf("%s is inside the exhaustive range", ft.Name())
		}
		if got, want := ft.Diameter(), MaxHops(ft); got != want {
			t.Errorf("%s: Diameter = %d, sampled MaxHops = %d", ft.Name(), got, want)
		}
	}
}

func TestTorusDiameterKeepsSampledValue(t *testing.T) {
	// Past 256 nodes the stride sampler can miss the antipodal pair: on
	// the Vulcan shape it finds 18 hops against the exact 19. Diameter
	// keeps the sampled value, which Fig 1's collective costs rest on.
	vulcan := NewTorus(8, 8, 8, 8, 6)
	if got := vulcan.Diameter(); got != 18 || got != MaxHops(vulcan) {
		t.Fatalf("Vulcan torus Diameter = %d, want the sampled 18 (MaxHops %d)", got, MaxHops(vulcan))
	}
	if exact := torusExactDiameter(8, 8, 8, 8, 6); exact != 19 {
		t.Fatalf("exact Vulcan diameter = %d, want 19", exact)
	}
}

func TestWrapDelta(t *testing.T) {
	cases := []struct{ a, b, size, want int }{
		{0, 1, 4, 1},
		{0, 3, 4, -1},
		{0, 2, 4, 2}, // tie goes forward
		{3, 0, 4, 1},
		{2, 2, 4, 0},
	}
	for _, c := range cases {
		if got := wrapDelta(c.a, c.b, c.size); got != c.want {
			t.Fatalf("wrapDelta(%d,%d,%d) = %d, want %d", c.a, c.b, c.size, got, c.want)
		}
	}
}

func TestNewTorusPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTorus(3, 0)
}
