package graph

import "fmt"

// The deterministic families below are defined as StreamSpecs — an edge
// count, an edge-emitting closure, and landmarks — and built by the
// two-pass streaming builder (see stream.go), so construction peaks at
// exactly the final CSR size. The xxxSpec functions are separate from the
// public constructors so tests can replay the same edge stream through
// the Builder oracle and pin byte-identical output. The random families
// are seeded edge-stream samplers in randstream.go.

// Star returns the star S_n of the paper's Fig. 1(a): one center connected
// to `leaves` leaves. Landmarks: "center", "leaf".
func Star(leaves int) *Graph {
	return mustStream(starSpec(leaves))
}

func starSpec(leaves int) StreamSpec {
	if leaves < 1 {
		panic("graph: Star needs at least one leaf")
	}
	return StreamSpec{
		N:    leaves + 1,
		M:    int64(leaves),
		Name: fmt.Sprintf("star(%d)", leaves),
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(doubleStarSpec(leavesPerStar))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(heavyBinaryTreeSpec(levels))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
			emitCompleteBinaryTree(emit, 0, n)
			emitClique(emit, firstLeaf, n)
		},
		Landmarks: map[string]Vertex{"root": 0, "leaf": Vertex(firstLeaf)},
	}
}

// SiameseHeavyTree returns the graph D_n of Fig. 1(d): two heavy binary
// trees sharing a single root vertex. Landmarks: "root", "leafA", "leafB".
func SiameseHeavyTree(levels int) *Graph {
	return mustStream(siameseHeavyTreeSpec(levels))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(cycleStarsCliquesSpec(k))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(completeSpec(n))
}

func completeSpec(n int) StreamSpec {
	if n < 2 {
		panic("graph: Complete needs n >= 2")
	}
	return StreamSpec{
		N:    n,
		M:    cliqueEdges(n),
		Name: fmt.Sprintf("complete(%d)", n),
		Emit: func(_ int, emit func(u, v Vertex)) { emitClique(emit, 0, n) },
	}
}

// Cycle returns the n-cycle, n >= 3.
func Cycle(n int) *Graph {
	return mustStream(cycleSpec(n))
}

func cycleSpec(n int) StreamSpec {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	return StreamSpec{
		N:    n,
		M:    int64(n),
		Name: fmt.Sprintf("cycle(%d)", n),
		Emit: func(_ int, emit func(u, v Vertex)) {
			for i := 0; i < n; i++ {
				emit(Vertex(i), Vertex((i+1)%n))
			}
		},
	}
}

// Path returns the path graph on n vertices, n >= 2.
func Path(n int) *Graph {
	return mustStream(pathSpec(n))
}

func pathSpec(n int) StreamSpec {
	if n < 2 {
		panic("graph: Path needs n >= 2")
	}
	return StreamSpec{
		N:    n,
		M:    int64(n - 1),
		Name: fmt.Sprintf("path(%d)", n),
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(binaryTreeSpec(levels))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
			emitCompleteBinaryTree(emit, 0, n)
		},
		Landmarks: map[string]Vertex{"root": 0, "leaf": Vertex(n - 1)},
	}
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices. It is
// dim-regular with dim = log2 n, the natural "degree exactly log n" regular
// graph for Theorem 1 experiments.
func Hypercube(dim int) *Graph {
	return mustStream(hypercubeSpec(dim))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(torus2DSpec(rows, cols))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(grid2DSpec(rows, cols))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(ringOfCliquesSpec(k, s))
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
		Emit: func(_ int, emit func(u, v Vertex)) {
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
	return mustStream(cliquePathSpec(k, s))
}

func cliquePathSpec(k, s int) StreamSpec {
	if k < 2 || s < 2 {
		panic("graph: CliquePath needs k >= 2, s >= 2")
	}
	return StreamSpec{
		N:    k * s,
		M:    int64(k)*cliqueEdges(s) + int64(k-1),
		Name: fmt.Sprintf("cliquepath(%dx%d)", k, s),
		Emit: func(_ int, emit func(u, v Vertex)) {
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
