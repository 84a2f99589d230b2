package graph

import (
	"math"
	"testing"

	"rumor/internal/xrand"
)

func TestWalkIndexMatchesCSR(t *testing.T) {
	for _, g := range []*Graph{Star(17), Hypercube(6), Cycle(9), HeavyBinaryTree(5)} {
		idx := g.WalkIndex()
		if idx == nil {
			t.Fatalf("%s: WalkIndex nil", g.Name())
		}
		nbrs := g.NeighborsRaw()
		for v := 0; v < g.N(); v++ {
			word := idx[v]
			deg := g.Degree(Vertex(v))
			if WalkDegreeOne(word) != (deg == 1) {
				t.Fatalf("%s: vertex %d degree-1 flag wrong (deg %d)", g.Name(), v, deg)
			}
			// Every draw must land on a real neighbor of v.
			s := xrand.NewStream(1, uint64(v), 0)
			for k := 0; k < 32; k++ {
				to := WalkTarget(word, s.Uint64(), nbrs)
				if !g.HasEdge(Vertex(v), to) {
					t.Fatalf("%s: WalkTarget(%d) = %d, not a neighbor", g.Name(), v, to)
				}
			}
			if deg == 1 {
				if got, want := WalkOnlyNeighbor(word, nbrs), g.Neighbors(Vertex(v))[0]; got != want {
					t.Fatalf("%s: WalkOnlyNeighbor(%d) = %d, want %d", g.Name(), v, got, want)
				}
			}
		}
	}
}

// TestWalkTargetUniform: draws through the packed index must be uniform
// over the neighbor list, for both the mask path (power-of-two degree) and
// the reduction path.
func TestWalkTargetUniform(t *testing.T) {
	for _, tc := range []struct {
		g *Graph
		v Vertex
	}{
		{Hypercube(4), 0}, // degree 4: mask path
		{Star(6), 0},      // degree 6: reduction path
	} {
		idx := tc.g.WalkIndex()
		nbrs := tc.g.NeighborsRaw()
		deg := tc.g.Degree(tc.v)
		counts := make(map[Vertex]int, deg)
		s := xrand.NewStream(7, uint64(tc.v), 1)
		const trials = 20000
		for k := 0; k < trials; k++ {
			counts[WalkTarget(idx[tc.v], s.Uint64(), nbrs)]++
		}
		want := float64(trials) / float64(deg)
		for to, c := range counts {
			if math.Abs(float64(c)-want) > 0.1*want {
				t.Errorf("%s: neighbor %d drawn %d times, want about %.0f", tc.g.Name(), to, c, want)
			}
		}
		if len(counts) != deg {
			t.Errorf("%s: only %d of %d neighbors drawn", tc.g.Name(), len(counts), deg)
		}
	}
}

func TestStationaryAliasMatchesDegrees(t *testing.T) {
	g := Star(100) // center degree 100, leaves degree 1
	a := g.StationaryAlias()
	if a == nil {
		t.Fatal("StationaryAlias nil")
	}
	s := xrand.NewStream(3, 0, 0)
	const trials = 40000
	center := 0
	for k := 0; k < trials; k++ {
		if a.SampleStream(&s) == 0 {
			center++
		}
	}
	if got := float64(center) / trials; math.Abs(got-0.5) > 0.02 {
		t.Errorf("center sampled with frequency %.3f, want 0.5", got)
	}
}

func TestWalkIndexCachedOnce(t *testing.T) {
	g := Cycle(8)
	a := g.WalkIndex()
	b := g.WalkIndex()
	if &a[0] != &b[0] {
		t.Error("WalkIndex rebuilt instead of cached")
	}
	if g.StationaryAlias() != g.StationaryAlias() {
		t.Error("StationaryAlias rebuilt instead of cached")
	}
}

// TestWalkTargetAnyMatchesSplitPaths: the branchless resolvers must return
// exactly what the WalkDegreeOne/WalkTarget split returns for every degree
// class (1, power-of-two, general) and many draws.
func TestWalkTargetAnyMatchesSplitPaths(t *testing.T) {
	graphs := []*Graph{Star(9), Hypercube(4), HeavyBinaryTree(4), RingOfCliques(4, 5)}
	for _, g := range graphs {
		idx := g.WalkIndex()
		nbrs := g.NeighborsRaw()
		for v := 0; v < g.N(); v++ {
			word := idx[v]
			if WalkDegreeZero(word) {
				continue
			}
			for draw := uint64(0); draw < 64; draw++ {
				u := draw * 0x9e3779b97f4a7c15
				var want Vertex
				if WalkDegreeOne(word) {
					want = WalkOnlyNeighbor(word, nbrs)
				} else {
					want = WalkTarget(word, u, nbrs)
				}
				if got := WalkTargetAny(word, u, nbrs); got != want {
					t.Fatalf("%s v=%d u=%#x: WalkTargetAny %d != %d", g.Name(), v, u, got, want)
				}
				// 32-bit scheme against WalkTarget32.
				u32 := uint32(u)
				var want32 Vertex
				if WalkDegreeOne(word) {
					want32 = WalkOnlyNeighbor(word, nbrs)
				} else {
					want32 = WalkTarget32(word, u32, nbrs)
				}
				if got := WalkTarget32Any(word, u32, nbrs); got != want32 {
					t.Fatalf("%s v=%d: WalkTarget32Any %d != %d", g.Name(), v, got, want32)
				}
			}
		}
	}
}

// TestRegularDegree pins the regular degree on known families: a
// regular graph's neighbors of v must start at slot v·d, where the walk
// stepper's regular bodies read them.
func TestRegularDegree(t *testing.T) {
	edgeless, err := NewBuilder(3, "edgeless").Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g   *Graph
		deg int
	}{
		{Hypercube(4), 4},        // power-of-two degree
		{Hypercube(5), 5},        // multiply-shift degree
		{RingOfCliques(4, 5), 6}, // regular, not vertex-transitive
		{Star(9), 0},             // leaves deg 1, hub deg 9
		{Path(8), 0},             // degrees 1 and 2: all powers of two, not regular
		{edgeless, 0},
	}
	for _, c := range cases {
		if got := c.g.RegularDegree(); got != c.deg {
			t.Errorf("%s: RegularDegree = %d, want %d", c.g.Name(), got, c.deg)
		}
		if c.deg == 0 {
			continue
		}
		for v := 0; v < c.g.N(); v++ {
			lo := int(c.g.WalkIndex()[v] >> walkBaseShift)
			if lo != v*c.deg {
				t.Fatalf("%s: vertex %d's neighbors start at %d, not v·d = %d", c.g.Name(), v, lo, v*c.deg)
			}
		}
	}
}
