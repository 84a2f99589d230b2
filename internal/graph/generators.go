package graph

import (
	"fmt"
	"math"

	"rumor/internal/xrand"
)

// The deterministic families below are defined as StreamSpecs — an edge
// count, an edge-emitting closure, and landmarks — and built by the
// two-pass streaming builder (see stream.go), so construction peaks at
// exactly the final CSR size. The xxxSpec functions are separate from the
// public constructors so tests can replay the same edge stream through
// the legacy Builder and pin byte-identical output.

// Star returns the star S_n of the paper's Fig. 1(a): one center connected
// to `leaves` leaves. Landmarks: "center", "leaf".
func Star(leaves int) *Graph {
	return mustBuildStream(starSpec(leaves))
}

func starSpec(leaves int) StreamSpec {
	if leaves < 1 {
		panic("graph: Star needs at least one leaf")
	}
	return StreamSpec{
		N:    leaves + 1,
		M:    int64(leaves),
		Name: fmt.Sprintf("star(%d)", leaves),
		Emit: func(emit func(u, v Vertex)) {
			for i := 1; i <= leaves; i++ {
				emit(0, Vertex(i))
			}
		},
		Landmarks: map[string]Vertex{"center": 0, "leaf": 1},
	}
}

// DoubleStar returns the double star S²_n of Fig. 1(b): two stars with
// `leavesPerStar` leaves each, whose centers are joined by an edge.
// Landmarks: "centerA", "centerB", "leafA", "leafB".
func DoubleStar(leavesPerStar int) *Graph {
	return mustBuildStream(doubleStarSpec(leavesPerStar))
}

func doubleStarSpec(leavesPerStar int) StreamSpec {
	if leavesPerStar < 1 {
		panic("graph: DoubleStar needs at least one leaf per star")
	}
	const a, c = 0, 1
	return StreamSpec{
		N:    2 + 2*leavesPerStar,
		M:    int64(1 + 2*leavesPerStar),
		Name: fmt.Sprintf("doublestar(%d)", leavesPerStar),
		Emit: func(emit func(u, v Vertex)) {
			emit(a, c)
			for i := 0; i < leavesPerStar; i++ {
				emit(a, Vertex(2+i))
				emit(c, Vertex(2+leavesPerStar+i))
			}
		},
		Landmarks: map[string]Vertex{
			"centerA": a, "centerB": c,
			"leafA": 2, "leafB": Vertex(2 + leavesPerStar),
		},
	}
}

// HeavyBinaryTree returns the heavy binary tree B_n of Fig. 1(c): a complete
// binary tree with `levels` levels (n = 2^levels − 1 vertices, heap
// numbering) whose 2^(levels−1) leaves are additionally connected into a
// clique. Landmarks: "root", "leaf".
func HeavyBinaryTree(levels int) *Graph {
	return mustBuildStream(heavyBinaryTreeSpec(levels))
}

func heavyBinaryTreeSpec(levels int) StreamSpec {
	if levels < 2 {
		panic("graph: HeavyBinaryTree needs at least 2 levels")
	}
	n := (1 << levels) - 1
	firstLeaf := (1 << (levels - 1)) - 1
	return StreamSpec{
		N:    n,
		M:    int64(n-1) + cliqueEdges(n-firstLeaf),
		Name: fmt.Sprintf("heavytree(%d)", levels),
		Emit: func(emit func(u, v Vertex)) {
			emitCompleteBinaryTree(emit, 0, n)
			emitClique(emit, firstLeaf, n)
		},
		Landmarks: map[string]Vertex{"root": 0, "leaf": Vertex(firstLeaf)},
	}
}

// SiameseHeavyTree returns the graph D_n of Fig. 1(d): two heavy binary
// trees sharing a single root vertex. Landmarks: "root", "leafA", "leafB".
func SiameseHeavyTree(levels int) *Graph {
	return mustBuildStream(siameseHeavyTreeSpec(levels))
}

func siameseHeavyTreeSpec(levels int) StreamSpec {
	if levels < 2 {
		panic("graph: SiameseHeavyTree needs at least 2 levels")
	}
	nA := (1 << levels) - 1 // vertices of tree A, heap numbered from 0
	n := 2*nA - 1           // tree B reuses vertex 0 as its root
	firstLeafA := (1 << (levels - 1)) - 1
	// Tree B's heap index i>0 maps to vertex nA-1+i; index 0 is vertex 0.
	mapB := func(i int) Vertex {
		if i == 0 {
			return 0
		}
		return Vertex(nA - 1 + i)
	}
	return StreamSpec{
		N:    n,
		M:    2 * (int64(nA-1) + cliqueEdges(nA-firstLeafA)),
		Name: fmt.Sprintf("siamesetree(%d)", levels),
		Emit: func(emit func(u, v Vertex)) {
			// Tree A occupies [0, nA) with heap numbering.
			emitCompleteBinaryTree(emit, 0, nA)
			emitClique(emit, firstLeafA, nA)
			for i := 1; i < nA; i++ {
				emit(mapB((i-1)/2), mapB(i))
			}
			// Tree B's leaves are contiguous under mapB, so its leaf
			// clique is a range clique over the mapped interval.
			emitClique(emit, int(mapB(firstLeafA)), int(mapB(nA-1))+1)
		},
		Landmarks: map[string]Vertex{
			"root": 0, "leafA": Vertex(firstLeafA), "leafB": mapB(firstLeafA),
		},
	}
}

// CycleStarsCliques returns the cycle-of-stars-of-cliques of Fig. 1(e) with
// parameter k (the paper's n^{1/3}): a k-cycle of centers c_i, each with k
// star leaves l_{i,j}, each leaf joined to a k-clique so that
// {l_{i,j}} ∪ Q_{i,j} induces a (k+1)-clique. Total n = k + k² + k³.
// Landmarks: "ring", "starLeaf", "cliqueVertex".
func CycleStarsCliques(k int) *Graph {
	return mustBuildStream(cycleStarsCliquesSpec(k))
}

func cycleStarsCliquesSpec(k int) StreamSpec {
	if k < 3 {
		panic("graph: CycleStarsCliques needs k >= 3")
	}
	n := k + k*k + k*k*k
	center := func(i int) Vertex { return Vertex(i) }
	leaf := func(i, j int) Vertex { return Vertex(k + i*k + j) }
	cliqBase := func(i, j int) int { return k + k*k + (i*k+j)*k }
	return StreamSpec{
		N: n,
		// k ring edges, k² star edges, and k² induced (k+1)-cliques each
		// contributing k leaf-to-clique edges plus a k-clique.
		M:    int64(k) + int64(k)*int64(k)*(1+int64(k)) + int64(k)*int64(k)*cliqueEdges(k),
		Name: fmt.Sprintf("cyclestars(%d)", k),
		Emit: func(emit func(u, v Vertex)) {
			for i := 0; i < k; i++ {
				emit(center(i), center((i+1)%k))
				for j := 0; j < k; j++ {
					emit(center(i), leaf(i, j))
					base := cliqBase(i, j)
					for r := 0; r < k; r++ {
						emit(leaf(i, j), Vertex(base+r))
					}
					emitClique(emit, base, base+k)
				}
			}
		},
		Landmarks: map[string]Vertex{
			"ring": center(0), "starLeaf": leaf(0, 0),
			"cliqueVertex": Vertex(cliqBase(0, 0)),
		},
	}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	return mustBuildStream(completeSpec(n))
}

func completeSpec(n int) StreamSpec {
	if n < 2 {
		panic("graph: Complete needs n >= 2")
	}
	return StreamSpec{
		N:    n,
		M:    cliqueEdges(n),
		Name: fmt.Sprintf("complete(%d)", n),
		Emit: func(emit func(u, v Vertex)) { emitClique(emit, 0, n) },
	}
}

// Cycle returns the n-cycle, n >= 3.
func Cycle(n int) *Graph {
	return mustBuildStream(cycleSpec(n))
}

func cycleSpec(n int) StreamSpec {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	return StreamSpec{
		N:    n,
		M:    int64(n),
		Name: fmt.Sprintf("cycle(%d)", n),
		Emit: func(emit func(u, v Vertex)) {
			for i := 0; i < n; i++ {
				emit(Vertex(i), Vertex((i+1)%n))
			}
		},
	}
}

// Path returns the path graph on n vertices, n >= 2.
func Path(n int) *Graph {
	return mustBuildStream(pathSpec(n))
}

func pathSpec(n int) StreamSpec {
	if n < 2 {
		panic("graph: Path needs n >= 2")
	}
	return StreamSpec{
		N:    n,
		M:    int64(n - 1),
		Name: fmt.Sprintf("path(%d)", n),
		Emit: func(emit func(u, v Vertex)) {
			for i := 0; i+1 < n; i++ {
				emit(Vertex(i), Vertex(i+1))
			}
		},
		Landmarks: map[string]Vertex{"end": 0},
	}
}

// BinaryTree returns a complete binary tree with `levels` levels and
// 2^levels − 1 vertices in heap order. Landmarks: "root", "leaf".
func BinaryTree(levels int) *Graph {
	return mustBuildStream(binaryTreeSpec(levels))
}

func binaryTreeSpec(levels int) StreamSpec {
	if levels < 1 {
		panic("graph: BinaryTree needs at least 1 level")
	}
	n := (1 << levels) - 1
	return StreamSpec{
		N:    n,
		M:    int64(n - 1),
		Name: fmt.Sprintf("bintree(%d)", levels),
		Emit: func(emit func(u, v Vertex)) {
			emitCompleteBinaryTree(emit, 0, n)
		},
		Landmarks: map[string]Vertex{"root": 0, "leaf": Vertex(n - 1)},
	}
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices. It is
// dim-regular with dim = log2 n, the natural "degree exactly log n" regular
// graph for Theorem 1 experiments.
func Hypercube(dim int) *Graph {
	return mustBuildStream(hypercubeSpec(dim))
}

func hypercubeSpec(dim int) StreamSpec {
	if dim < 1 || dim > 30 {
		panic("graph: Hypercube dimension out of range [1,30]")
	}
	n := 1 << dim
	return StreamSpec{
		N:    n,
		M:    int64(n) * int64(dim) / 2,
		Name: fmt.Sprintf("hypercube(%d)", dim),
		Emit: func(emit func(u, v Vertex)) {
			// v's larger neighbours set one of its zero bits, lowest first.
			for v := 0; v < n; v++ {
				for z := ^v & (n - 1); z != 0; z &= z - 1 {
					emit(Vertex(v), Vertex(v|z&-z))
				}
			}
		},
	}
}

// Torus2D returns the rows×cols torus (wraparound grid). It is 4-regular.
// Both dimensions must be at least 3 to keep the graph simple.
func Torus2D(rows, cols int) *Graph {
	return mustBuildStream(torus2DSpec(rows, cols))
}

func torus2DSpec(rows, cols int) StreamSpec {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D needs rows, cols >= 3")
	}
	id := func(r, c int) Vertex { return Vertex(r*cols + c) }
	return StreamSpec{
		N:    rows * cols,
		M:    2 * int64(rows) * int64(cols),
		Name: fmt.Sprintf("torus(%dx%d)", rows, cols),
		Emit: func(emit func(u, v Vertex)) {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					emit(id(r, c), id(r, (c+1)%cols))
					emit(id(r, c), id((r+1)%rows, c))
				}
			}
		},
	}
}

// Grid2D returns the rows×cols grid without wraparound.
func Grid2D(rows, cols int) *Graph {
	return mustBuildStream(grid2DSpec(rows, cols))
}

func grid2DSpec(rows, cols int) StreamSpec {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("graph: Grid2D needs at least 2 vertices")
	}
	id := func(r, c int) Vertex { return Vertex(r*cols + c) }
	return StreamSpec{
		N:    rows * cols,
		M:    int64(rows)*int64(cols-1) + int64(rows-1)*int64(cols),
		Name: fmt.Sprintf("grid(%dx%d)", rows, cols),
		Emit: func(emit func(u, v Vertex)) {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if c+1 < cols {
						emit(id(r, c), id(r, c+1))
					}
					if r+1 < rows {
						emit(id(r, c), id(r+1, c))
					}
				}
			}
		},
		Landmarks: map[string]Vertex{"corner": 0},
	}
}

// RingOfCliques returns k cliques of size s arranged in a ring, consecutive
// cliques joined by a perfect matching. The result is (s+1)-regular on k·s
// vertices — the regular "slow" graph for Theorem 1 experiments (information
// must traverse Θ(k) cliques). Requires k >= 3, s >= 2.
func RingOfCliques(k, s int) *Graph {
	return mustBuildStream(ringOfCliquesSpec(k, s))
}

func ringOfCliquesSpec(k, s int) StreamSpec {
	if k < 3 || s < 2 {
		panic("graph: RingOfCliques needs k >= 3, s >= 2")
	}
	id := func(i, j int) Vertex { return Vertex(i*s + j) }
	return StreamSpec{
		N:    k * s,
		M:    int64(k)*cliqueEdges(s) + int64(k)*int64(s),
		Name: fmt.Sprintf("ringcliques(%dx%d)", k, s),
		Emit: func(emit func(u, v Vertex)) {
			for i := 0; i < k; i++ {
				emitClique(emit, i*s, (i+1)*s)
				for j := 0; j < s; j++ {
					emit(id(i, j), id((i+1)%k, j))
				}
			}
		},
		Landmarks: map[string]Vertex{"cliqueVertex": 0},
	}
}

// CliquePath returns the paper's "path of d-cliques": k cliques of size s in
// a path, consecutive cliques joined by a single bridge edge. Broadcast time
// of push is Ω(k·s) = Ω(n) because each bridge is found with probability 1/s
// per round. Nearly regular (degrees s−1, s, s+1).
func CliquePath(k, s int) *Graph {
	return mustBuildStream(cliquePathSpec(k, s))
}

func cliquePathSpec(k, s int) StreamSpec {
	if k < 2 || s < 2 {
		panic("graph: CliquePath needs k >= 2, s >= 2")
	}
	return StreamSpec{
		N:    k * s,
		M:    int64(k)*cliqueEdges(s) + int64(k-1),
		Name: fmt.Sprintf("cliquepath(%dx%d)", k, s),
		Emit: func(emit func(u, v Vertex)) {
			for i := 0; i < k; i++ {
				emitClique(emit, i*s, (i+1)*s)
				if i+1 < k {
					// Bridge from the last vertex of clique i to the
					// first of i+1.
					emit(Vertex((i+1)*s-1), Vertex((i+1)*s))
				}
			}
		},
		Landmarks: map[string]Vertex{"first": 0, "last": Vertex(k*s - 1)},
	}
}

// RandomRegular returns a uniform-ish random d-regular simple graph on n
// vertices via the configuration (stub pairing) model with edge-switch
// repair of self-loops and duplicate edges. Requires n·d even and 0 < d < n.
//
// The repair step performs uniformly random edge switches, which preserves
// the degree sequence; for d = O(log n) the result is statistically
// indistinguishable from the uniform model for this repository's purposes.
//
// This is the legacy in-memory sampler, kept as the laptop-scale
// reference API; spec builds (randreg:N,D) route through the streaming
// RandomRegularSeeded in randstream.go, whose peak heap is the final CSR.
func RandomRegular(n, d int, rng *xrand.RNG) (*Graph, error) {
	if d <= 0 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular needs 0 < d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	const maxRestarts = 64
	for attempt := 0; attempt < maxRestarts; attempt++ {
		g, ok := tryRandomRegular(n, d, rng)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d,%d) failed after %d restarts", n, d, maxRestarts)
}

func tryRandomRegular(n, d int, rng *xrand.RNG) (*Graph, bool) {
	stubs := make([]Vertex, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs[v*d+i] = Vertex(v)
		}
	}
	// Fisher-Yates shuffle of the stubs.
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}

	type pair struct{ u, v Vertex }
	key := func(u, v Vertex) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(uint32(v))
	}
	edgeSet := make(map[uint64]bool, n*d/2)
	good := make([]pair, 0, n*d/2)
	bad := make([]pair, 0)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || edgeSet[key(u, v)] {
			bad = append(bad, pair{u, v})
			continue
		}
		edgeSet[key(u, v)] = true
		good = append(good, pair{u, v})
	}

	// Repair each bad pair with random edge switches against good pairs.
	const maxSwitchTries = 200
	for _, p := range bad {
		repaired := false
		for try := 0; try < maxSwitchTries; try++ {
			j := rng.IntN(len(good))
			q := good[j]
			// Candidate new edges (p.u, q.u) and (p.v, q.v).
			a, bb := p.u, q.u
			c, dd := p.v, q.v
			if try%2 == 1 { // alternate orientation
				a, bb = p.u, q.v
				c, dd = p.v, q.u
			}
			if a == bb || c == dd {
				continue
			}
			k1, k2 := key(a, bb), key(c, dd)
			if k1 == k2 || edgeSet[k1] || edgeSet[k2] {
				continue
			}
			delete(edgeSet, key(q.u, q.v))
			edgeSet[k1] = true
			edgeSet[k2] = true
			good[j] = pair{a, bb}
			good = append(good, pair{c, dd})
			repaired = true
			break
		}
		if !repaired {
			return nil, false
		}
	}

	b := NewBuilder(n, fmt.Sprintf("randreg(%d,%d)", n, d))
	for _, p := range good {
		if err := b.AddEdge(p.u, p.v); err != nil {
			return nil, false
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, false
	}
	return g, true
}

// RandomRegularConnected retries RandomRegular until the sample is connected
// (at most 32 attempts). For d >= 3 almost every sample is connected, so
// this nearly always succeeds on the first try.
func RandomRegularConnected(n, d int, rng *xrand.RNG) (*Graph, error) {
	for attempt := 0; attempt < 32; attempt++ {
		g, err := RandomRegular(n, d, rng)
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected %d-regular sample on %d vertices after 32 tries", d, n)
}

// ErdosRenyi returns a sample of G(n, p) using geometric skipping, so the
// cost is proportional to the number of edges rather than n². It is the
// legacy Builder-based sampler (peak memory ≈ 2× the CSR); spec builds
// (gnp:N,P) route through the streaming ErdosRenyiSeeded in
// randstream.go.
func ErdosRenyi(n int, p float64, rng *xrand.RNG) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs n >= 1")
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs p in [0,1], got %g", p)
	}
	b := NewBuilder(n, fmt.Sprintf("gnp(%d,%.4f)", n, p))
	if p > 0 {
		// Linearize pairs (i, j), i < j, and jump by Geometric(p) gaps.
		total := int64(n) * int64(n-1) / 2
		idx := int64(-1)
		for {
			idx += int64(rng.Geometric(p))
			if idx >= total {
				break
			}
			u, v := pairFromIndex(idx, n)
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// pairFromIndex maps a linear index over {(i,j) : 0 <= i < j < n} in
// row-major order back to the pair.
func pairFromIndex(idx int64, n int) (Vertex, Vertex) {
	// Row i contains n-1-i pairs. Walk rows; n is laptop-scale so the loop
	// is acceptable, but use the closed form to stay O(1).
	// Pairs before row i: i*n - i*(i+1)/2.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		before := int64(mid)*int64(n) - int64(mid)*int64(mid+1)/2
		if before <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	i := lo
	before := int64(i)*int64(n) - int64(i)*int64(i+1)/2
	j := i + 1 + int(idx-before)
	return Vertex(i), Vertex(j)
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// clique on m+1 vertices, each new vertex attaches to m distinct existing
// vertices chosen proportionally to their degree. This is the classic
// social-network model on which push-pull is provably much faster than push
// (Doerr, Fouz & Friedrich [17]; Chierichetti et al. [12]) — the
// observation the paper's introduction cites.
//
// Degree-proportional sampling uses the standard trick of picking a uniform
// endpoint of an existing edge. This is the legacy in-memory sampler
// (it materializes the full endpoint list); spec builds (barabasi:N,M)
// route through the streaming BarabasiAlbertSeeded in randstream.go,
// which resolves the endpoint pool analytically.
func BarabasiAlbert(n, m int, rng *xrand.RNG) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs m >= 1")
	}
	if n < m+2 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs n >= m+2, got n=%d m=%d", n, m)
	}
	b := NewBuilder(n, fmt.Sprintf("barabasi(%d,%d)", n, m))
	// Endpoint list: every edge contributes both endpoints, so a uniform
	// entry is a degree-proportional vertex.
	endpoints := make([]Vertex, 0, 2*m*n)
	addEdge := func(u, v Vertex) error {
		if err := b.AddEdge(u, v); err != nil {
			return err
		}
		endpoints = append(endpoints, u, v)
		return nil
	}
	// Seed clique on m+1 vertices.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			if err := addEdge(Vertex(i), Vertex(j)); err != nil {
				return nil, err
			}
		}
	}
	chosen := make([]Vertex, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[rng.IntN(len(endpoints))]
			if !containsVertex(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		// Insertion order is the draw order, so the construction is a pure
		// function of the RNG stream (no map-iteration nondeterminism).
		for _, t := range chosen {
			if err := addEdge(Vertex(v), t); err != nil {
				return nil, err
			}
		}
	}
	b.SetLandmark("hub", 0)
	return b.Build()
}

// ChungLu returns a Chung-Lu random graph with power-law expected degrees:
// weight w_i ∝ (i+1)^(−1/(β−1)) scaled to the requested average degree, and
// each edge {i,j} present independently with probability
// min(1, w_i·w_j / Σw). β must exceed 2 for a finite mean. The generator is
// O(n²); it targets the social-network example (n in the low thousands).
// Spec builds (chunglu:N,B,D) route through the streaming ChungLuSeeded
// in randstream.go, whose skip sampling is O(n + m) expected.
func ChungLu(n int, beta, avgDeg float64, rng *xrand.RNG) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: ChungLu needs n >= 2")
	}
	if beta <= 2 {
		return nil, fmt.Errorf("graph: ChungLu needs beta > 2, got %g", beta)
	}
	if avgDeg <= 0 || avgDeg >= float64(n) {
		return nil, fmt.Errorf("graph: ChungLu needs 0 < avgDeg < n, got %g", avgDeg)
	}
	w := make([]float64, n)
	sum := 0.0
	exp := -1 / (beta - 1)
	for i := range w {
		w[i] = math.Pow(float64(i+1), exp)
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	total := 0.0
	for i := range w {
		w[i] *= scale
		total += w[i]
	}
	b := NewBuilder(n, fmt.Sprintf("chunglu(%d,%.1f,%.1f)", n, beta, avgDeg))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := w[i] * w[j] / total
			if p > 1 {
				p = 1
			}
			if rng.Bernoulli(p) {
				if err := b.AddEdge(Vertex(i), Vertex(j)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

func containsVertex(vs []Vertex, v Vertex) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
