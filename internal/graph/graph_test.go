package graph

import (
	"bytes"
	"testing"
	"testing/quick"

	"rumor/internal/xrand"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3, "t")
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative accepted")
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	b := NewBuilder(3, "t")
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("duplicate edge not caught at Build")
	}
}

func TestBasicAccessors(t *testing.T) {
	b := NewBuilder(4, "diamond")
	for _, e := range [][2]Vertex{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d, want 4, 5", g.N(), g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 3 {
		t.Errorf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
	if g.MinDegree() != 2 || g.MaxDegree() != 3 {
		t.Errorf("MinDegree=%d MaxDegree=%d", g.MinDegree(), g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 2.5 {
		t.Errorf("AvgDegree=%g, want 2.5", got)
	}
	if reg, _ := g.IsRegular(); reg {
		t.Error("diamond reported regular")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// familyCase describes one generated graph and its structural expectations.
type familyCase struct {
	name       string
	g          *Graph
	wantN      int
	wantM      int
	regular    int // -1 if not regular, else the degree
	bipartite  bool
	landmarks  []string
	wantMinDeg int
	wantMaxDeg int
}

func allFamilies(t *testing.T) []familyCase {
	t.Helper()
	rr, err := RandomRegularConnected(64, 6, 12345)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(80, 0.2, 12346)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ChungLu(200, 2.5, 8, 12347)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := BarabasiAlbert(60, 3, 12348)
	if err != nil {
		t.Fatal(err)
	}
	k := 4 // CycleStarsCliques parameter
	return []familyCase{
		{
			name: "star", g: Star(10), wantN: 11, wantM: 10, regular: -1,
			bipartite: true, landmarks: []string{"center", "leaf"},
			wantMinDeg: 1, wantMaxDeg: 10,
		},
		{
			name: "doublestar", g: DoubleStar(8), wantN: 18, wantM: 17, regular: -1,
			bipartite: true, landmarks: []string{"centerA", "centerB", "leafA", "leafB"},
			wantMinDeg: 1, wantMaxDeg: 9,
		},
		{
			// levels=4: n=15, leaves=8; tree edges 14 + C(8,2)=28 clique edges.
			// Leaf degree = 1 parent + 7 clique peers = 8; root degree 2.
			name: "heavytree", g: HeavyBinaryTree(4), wantN: 15, wantM: 42, regular: -1,
			bipartite: false, landmarks: []string{"root", "leaf"},
			wantMinDeg: 2, wantMaxDeg: 8,
		},
		{
			// levels=4 twice sharing root: n = 2*15-1 = 29,
			// m = 2*42 = 84 (root edges counted once per tree). Shared root
			// has degree 4, internal nodes 3, leaves 8.
			name: "siamesetree", g: SiameseHeavyTree(4), wantN: 29, wantM: 84, regular: -1,
			bipartite: false, landmarks: []string{"root", "leafA", "leafB"},
			wantMinDeg: 3, wantMaxDeg: 8,
		},
		{
			// k=4: n = 4 + 16 + 64 = 84.
			// m = cycle 4 + center-leaf 16 + per-(i,j) C(5,2)=10 cliques * 16 = 180.
			name: "cyclestars", g: CycleStarsCliques(k), wantN: 84, wantM: 180, regular: -1,
			bipartite: false, landmarks: []string{"ring", "starLeaf", "cliqueVertex"},
			wantMinDeg: 4, wantMaxDeg: 6,
		},
		{
			name: "complete", g: Complete(9), wantN: 9, wantM: 36, regular: 8,
			bipartite: false, wantMinDeg: 8, wantMaxDeg: 8,
		},
		{
			name: "cycle-even", g: Cycle(10), wantN: 10, wantM: 10, regular: 2,
			bipartite: true, wantMinDeg: 2, wantMaxDeg: 2,
		},
		{
			name: "cycle-odd", g: Cycle(9), wantN: 9, wantM: 9, regular: 2,
			bipartite: false, wantMinDeg: 2, wantMaxDeg: 2,
		},
		{
			name: "path", g: Path(7), wantN: 7, wantM: 6, regular: -1,
			bipartite: true, landmarks: []string{"end"}, wantMinDeg: 1, wantMaxDeg: 2,
		},
		{
			name: "bintree", g: BinaryTree(4), wantN: 15, wantM: 14, regular: -1,
			bipartite: true, landmarks: []string{"root", "leaf"}, wantMinDeg: 1, wantMaxDeg: 3,
		},
		{
			name: "hypercube", g: Hypercube(5), wantN: 32, wantM: 80, regular: 5,
			bipartite: true, wantMinDeg: 5, wantMaxDeg: 5,
		},
		{
			name: "torus", g: Torus2D(4, 5), wantN: 20, wantM: 40, regular: 4,
			bipartite: false, wantMinDeg: 4, wantMaxDeg: 4,
		},
		{
			name: "grid", g: Grid2D(3, 4), wantN: 12, wantM: 17, regular: -1,
			bipartite: true, landmarks: []string{"corner"}, wantMinDeg: 2, wantMaxDeg: 4,
		},
		{
			// 4 cliques of 5: clique edges 4*10=40, matchings 4*5=20.
			name: "ringcliques", g: RingOfCliques(4, 5), wantN: 20, wantM: 60, regular: 6,
			bipartite: false, landmarks: []string{"cliqueVertex"}, wantMinDeg: 6, wantMaxDeg: 6,
		},
		{
			// 3 cliques of 4: 3*6=18 clique edges + 2 bridges.
			name: "cliquepath", g: CliquePath(3, 4), wantN: 12, wantM: 20, regular: -1,
			bipartite: false, landmarks: []string{"first", "last"}, wantMinDeg: 3, wantMaxDeg: 4,
		},
		{
			name: "randregular", g: rr, wantN: 64, wantM: 192, regular: 6,
			bipartite: false, wantMinDeg: 6, wantMaxDeg: 6,
		},
		{
			name: "erdosrenyi", g: er, wantN: 80, wantM: -1, regular: -1,
			bipartite: false, wantMinDeg: -1, wantMaxDeg: -1,
		},
		{
			name: "chunglu", g: cl, wantN: 200, wantM: -1, regular: -1,
			bipartite: false, wantMinDeg: -1, wantMaxDeg: -1,
		},
		{
			// Seed clique C(4,2) = 6 edges plus 3 per later vertex.
			name: "barabasi", g: ba, wantN: 60, wantM: 6 + 3*56, regular: -1,
			bipartite: false, landmarks: []string{"hub"}, wantMinDeg: 3, wantMaxDeg: -1,
		},
	}
}

func TestFamilies(t *testing.T) {
	for _, tc := range allFamilies(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if g.N() != tc.wantN {
				t.Errorf("N = %d, want %d", g.N(), tc.wantN)
			}
			if tc.wantM >= 0 && g.M() != tc.wantM {
				t.Errorf("M = %d, want %d", g.M(), tc.wantM)
			}
			reg, d := g.IsRegular()
			if tc.regular >= 0 {
				if !reg || d != tc.regular {
					t.Errorf("IsRegular = (%v, %d), want (true, %d)", reg, d, tc.regular)
				}
			} else if reg && tc.wantMinDeg != tc.wantMaxDeg {
				t.Errorf("unexpectedly regular")
			}
			if tc.wantMinDeg >= 0 && g.MinDegree() != tc.wantMinDeg {
				t.Errorf("MinDegree = %d, want %d", g.MinDegree(), tc.wantMinDeg)
			}
			if tc.wantMaxDeg >= 0 && g.MaxDegree() != tc.wantMaxDeg {
				t.Errorf("MaxDegree = %d, want %d", g.MaxDegree(), tc.wantMaxDeg)
			}
			// Deterministic families must be connected; random ones usually are
			// but only the regular one is guaranteed by construction here.
			if tc.name != "erdosrenyi" && tc.name != "chunglu" && !IsConnected(g) {
				t.Error("graph not connected")
			}
			if got := IsBipartite(g); got != tc.bipartite && tc.name != "erdosrenyi" && tc.name != "chunglu" {
				t.Errorf("IsBipartite = %v, want %v", got, tc.bipartite)
			}
			// The memoized answer equals the reference search, first ask
			// and repeat.
			for i := 0; i < 2; i++ {
				if got, want := g.Bipartite(), IsBipartite(g); got != want {
					t.Errorf("ask %d: Bipartite() = %v, IsBipartite = %v", i, got, want)
				}
			}
			for _, lm := range tc.landmarks {
				if _, ok := g.Landmark(lm); !ok {
					t.Errorf("missing landmark %q", lm)
				}
			}
			if g.Name() == "" {
				t.Error("empty name")
			}
		})
	}
}

func TestDegreeSumIsTwiceEdges(t *testing.T) {
	for _, tc := range allFamilies(t) {
		sum := 0
		for v := 0; v < tc.g.N(); v++ {
			sum += tc.g.Degree(Vertex(v))
		}
		if sum != 2*tc.g.M() {
			t.Errorf("%s: degree sum %d != 2M %d", tc.name, sum, 2*tc.g.M())
		}
	}
}

func TestStarStructure(t *testing.T) {
	g := Star(5)
	center, _ := g.Landmark("center")
	if g.Degree(center) != 5 {
		t.Errorf("center degree %d", g.Degree(center))
	}
	for v := Vertex(1); v <= 5; v++ {
		if g.Degree(v) != 1 {
			t.Errorf("leaf %d degree %d", v, g.Degree(v))
		}
	}
}

func TestDoubleStarBridge(t *testing.T) {
	g := DoubleStar(6)
	a, _ := g.Landmark("centerA")
	c, _ := g.Landmark("centerB")
	if !g.HasEdge(a, c) {
		t.Fatal("centers not connected")
	}
	if g.Degree(a) != 7 || g.Degree(c) != 7 {
		t.Errorf("center degrees %d, %d; want 7", g.Degree(a), g.Degree(c))
	}
}

func TestHeavyTreeLeafClique(t *testing.T) {
	g := HeavyBinaryTree(4)
	// Leaves 7..14 must form a clique and each also connects to its parent.
	for u := Vertex(7); u <= 14; u++ {
		for v := u + 1; v <= 14; v++ {
			if !g.HasEdge(u, v) {
				t.Errorf("leaves %d,%d not adjacent", u, v)
			}
		}
		parent := (u - 1) / 2
		if !g.HasEdge(u, parent) {
			t.Errorf("leaf %d missing tree edge to %d", u, parent)
		}
	}
	root, _ := g.Landmark("root")
	if g.Degree(root) != 2 {
		t.Errorf("root degree %d, want 2", g.Degree(root))
	}
}

func TestSiameseTreeRootDegree(t *testing.T) {
	g := SiameseHeavyTree(4)
	root, _ := g.Landmark("root")
	if g.Degree(root) != 4 {
		t.Errorf("shared root degree %d, want 4 (two children per tree)", g.Degree(root))
	}
	// The two leaf landmarks must be in different cliques: not adjacent.
	a, _ := g.Landmark("leafA")
	bb, _ := g.Landmark("leafB")
	if g.HasEdge(a, bb) {
		t.Error("leaves of different trees adjacent")
	}
}

func TestCycleStarsDegrees(t *testing.T) {
	k := 5
	g := CycleStarsCliques(k)
	ring, _ := g.Landmark("ring")
	leafV, _ := g.Landmark("starLeaf")
	cliqueV, _ := g.Landmark("cliqueVertex")
	if got := g.Degree(ring); got != k+2 {
		t.Errorf("ring degree %d, want %d", got, k+2)
	}
	if got := g.Degree(leafV); got != k+1 {
		t.Errorf("star leaf degree %d, want %d", got, k+1)
	}
	if got := g.Degree(cliqueV); got != k {
		t.Errorf("clique vertex degree %d, want %d", got, k)
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(4)
	// Neighbors of v are exactly the single-bit flips.
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(Vertex(v)) {
			x := v ^ int(w)
			if x == 0 || x&(x-1) != 0 {
				t.Fatalf("hypercube edge %d-%d differs in more than one bit", v, w)
			}
		}
	}
	if got := Diameter(g); got != 4 {
		t.Errorf("Diameter = %d, want 4", got)
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path7", Path(7), 6},
		{"cycle10", Cycle(10), 5},
		{"cycle9", Cycle(9), 4},
		{"complete6", Complete(6), 1},
		{"star8", Star(8), 2},
		{"doublestar4", DoubleStar(4), 3},
		{"grid3x4", Grid2D(3, 4), 5},
	}
	for _, tc := range cases {
		if got := Diameter(tc.g); got != tc.want {
			t.Errorf("%s: Diameter = %d, want %d", tc.name, got, tc.want)
		}
		// The double-sweep estimate is exact on these simple families.
		if got := DiameterEstimate(tc.g); got != tc.want {
			t.Errorf("%s: DiameterEstimate = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := BFS(g, 0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("BFS[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two triangles, disjoint.
	b := NewBuilder(6, "二triangles")
	for _, e := range [][2]Vertex{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	count, comp := Components(g)
	if count != 2 {
		t.Fatalf("Components = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[0] == comp[3] {
		t.Errorf("component labeling wrong: %v", comp)
	}
	if IsConnected(g) {
		t.Error("disconnected graph reported connected")
	}
	if Diameter(g) != -1 {
		t.Error("Diameter of disconnected graph should be -1")
	}
}

func TestEndpointOwner(t *testing.T) {
	g := Star(4) // degrees: center 4, leaves 1 each; endpoints = 8
	if g.EndpointCount() != 8 {
		t.Fatalf("EndpointCount = %d, want 8", g.EndpointCount())
	}
	counts := make(map[Vertex]int)
	for i := 0; i < g.EndpointCount(); i++ {
		counts[g.EndpointOwner(i)]++
	}
	for v := Vertex(0); v < Vertex(g.N()); v++ {
		if counts[v] != g.Degree(v) {
			t.Errorf("owner count of %d = %d, want degree %d", v, counts[v], g.Degree(v))
		}
	}
}

func TestRandomRegularProperties(t *testing.T) {
	for i, tc := range []struct{ n, d int }{{16, 3}, {50, 4}, {128, 7}, {200, 12}} {
		g, err := randomRegular(tc.n, tc.d, uint64(99+i))
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("RandomRegular(%d,%d) invalid: %v", tc.n, tc.d, err)
		}
		reg, d := g.IsRegular()
		if !reg || d != tc.d {
			t.Errorf("RandomRegular(%d,%d): regular=(%v,%d)", tc.n, tc.d, reg, d)
		}
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	if _, err := RandomRegularConnected(5, 3, 1); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := RandomRegularConnected(4, 4, 1); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := RandomRegularConnected(4, 0, 1); err == nil {
		t.Error("d = 0 accepted")
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	g1, err := randomRegular(40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := randomRegular(40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := g1.Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := g2.Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed produced different random regular graphs")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	n, p := 200, 0.1
	g, err := ErdosRenyi(n, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	if got < 0.8*want || got > 1.2*want {
		t.Errorf("G(n,p) edges = %g, expected about %g", got, want)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	g0, err := ErdosRenyi(10, 0, 6)
	if err != nil || g0.M() != 0 {
		t.Errorf("G(10,0): m=%d err=%v", g0.M(), err)
	}
	g1, err := ErdosRenyi(10, 1, 6)
	if err != nil || g1.M() != 45 {
		t.Errorf("G(10,1): m=%d err=%v, want complete 45", g1.M(), err)
	}
}

func TestChungLuShape(t *testing.T) {
	g, err := ChungLu(400, 2.5, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := g.AvgDegree()
	if avg < 5 || avg > 15 {
		t.Errorf("ChungLu avg degree %.2f, wanted near 10", avg)
	}
	// Power-law: max degree should far exceed the average.
	if g.MaxDegree() < 3*int(avg) {
		t.Errorf("ChungLu max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestChungLuRejectsBadParams(t *testing.T) {
	if _, err := ChungLu(1, 2.5, 1, 8); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ChungLu(10, 2.0, 3, 8); err == nil {
		t.Error("beta=2 accepted")
	}
	if _, err := ChungLu(10, 2.5, 0, 8); err == nil {
		t.Error("avgDeg=0 accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range allFamilies(t) {
		var buf bytes.Buffer
		if err := tc.g.Encode(&buf); err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		// Name, landmarks and adjacency all survive: the binary encodings
		// agree byte for byte.
		if !bytes.Equal(encodeCSRBytes(t, got), encodeCSRBytes(t, tc.g)) {
			t.Fatalf("%s: round trip changed the graph", tc.name)
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus 3 1\n0 1\n",
		"rumorgraph x 1\n0 1\n",
		"rumorgraph 3 2\n0 1\n",                 // edge count mismatch
		"rumorgraph 3 1\n0 9\n",                 // out of range
		"rumorgraph 3 1\n0\n",                   // malformed line
		"rumorgraph 3 1\n0 z\n",                 // bad vertex
		"rumorgraph 3 1\nlandmark hub 3\n0 1\n", // landmark out of range
	}
	for i, in := range cases {
		if _, err := Decode(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("case %d: Decode accepted %q", i, in)
		}
	}
}

func TestReadFromSkipsComments(t *testing.T) {
	in := "rumorgraph 3 2 tri\n# comment\n0 1\n\n1 2\n"
	g, err := Decode(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Name() != "tri" {
		t.Errorf("got n=%d m=%d name=%q", g.N(), g.M(), g.Name())
	}
}

// TestQuickPairFromIndex checks the linear-index-to-pair bijection used by
// the G(n,p) skip sampler.
func TestQuickPairFromIndex(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.IntN(60)
		idx := int64(0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				u, v := pairFromIndex(idx, n)
				if int(u) != i || int(v) != j {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEndpointOwnerStationary verifies the binary search in
// EndpointOwner on random graphs.
func TestQuickEndpointOwnerStationary(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, err := ErdosRenyi(3+rng.IntN(40), 0.3, rng.Uint64())
		if err != nil || g.M() == 0 {
			return true // nothing to check
		}
		counts := make([]int, g.N())
		for i := 0; i < g.EndpointCount(); i++ {
			counts[g.EndpointOwner(i)]++
		}
		for v := 0; v < g.N(); v++ {
			if counts[v] != g.Degree(Vertex(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"star0", func() { Star(0) }},
		{"doublestar0", func() { DoubleStar(0) }},
		{"heavytree1", func() { HeavyBinaryTree(1) }},
		{"siamese1", func() { SiameseHeavyTree(1) }},
		{"cyclestars2", func() { CycleStarsCliques(2) }},
		{"complete1", func() { Complete(1) }},
		{"cycle2", func() { Cycle(2) }},
		{"path1", func() { Path(1) }},
		{"bintree0", func() { BinaryTree(0) }},
		{"hypercube0", func() { Hypercube(0) }},
		{"torus2", func() { Torus2D(2, 5) }},
		{"ringcliques2", func() { RingOfCliques(2, 3) }},
		{"cliquepath1", func() { CliquePath(1, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestGiantComponent(t *testing.T) {
	// Triangle + edge + isolated vertex: giant component is the triangle.
	b := NewBuilder(6, "mix")
	for _, e := range [][2]Vertex{{0, 1}, {1, 2}, {2, 0}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	giant, mapping := GiantComponent(g)
	if giant.N() != 3 || giant.M() != 3 {
		t.Fatalf("giant = (%d,%d), want triangle (3,3)", giant.N(), giant.M())
	}
	if err := giant.Validate(); err != nil {
		t.Fatal(err)
	}
	if !IsConnected(giant) {
		t.Error("giant component disconnected")
	}
	seen := map[Vertex]bool{}
	for newV, oldV := range mapping {
		if oldV > 2 {
			t.Errorf("mapping[%d] = %d, not in the triangle", newV, oldV)
		}
		seen[oldV] = true
	}
	if len(seen) != 3 {
		t.Errorf("mapping covers %d vertices", len(seen))
	}
}

func TestGiantComponentOfConnectedGraphIsWhole(t *testing.T) {
	g := Hypercube(4)
	giant, mapping := GiantComponent(g)
	if giant.N() != g.N() || giant.M() != g.M() {
		t.Fatalf("giant of connected graph shrank: %d/%d", giant.N(), giant.M())
	}
	for newV, oldV := range mapping {
		if Vertex(newV) != oldV {
			t.Fatal("identity mapping expected for connected input")
		}
	}
}

func TestBarabasiAlbertStructure(t *testing.T) {
	n, m := 500, 3
	g, err := BarabasiAlbert(n, m, 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: seed clique C(m+1,2) + m per added vertex.
	wantM := m*(m+1)/2 + m*(n-m-1)
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	if !IsConnected(g) {
		t.Error("preferential attachment graph disconnected")
	}
	if g.MinDegree() < m {
		t.Errorf("MinDegree = %d, want >= %d", g.MinDegree(), m)
	}
	// Heavy tail: the max degree should far exceed the average (2m-ish).
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Errorf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
	if _, ok := g.Landmark("hub"); !ok {
		t.Error("hub landmark missing")
	}
}

func TestBarabasiAlbertRejectsBadParams(t *testing.T) {
	if _, err := BarabasiAlbert(5, 0, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(3, 2, 1); err == nil {
		t.Error("n < m+2 accepted")
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, err := BarabasiAlbert(100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCSRBytes(t, a), encodeCSRBytes(t, b)) {
		t.Fatal("same seed, different graphs")
	}
}
