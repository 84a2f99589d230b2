// Package graph provides the immutable graph substrate for the rumor
// spreading simulator: a compact CSR (compressed sparse row) representation,
// generators for every graph family used in the paper (star, double star,
// heavy binary tree, Siamese heavy binary tree, cycle-of-stars-of-cliques,
// regular families), and the graph algorithms the experiment harness needs
// (BFS, connectivity, bipartiteness, diameter, degree statistics).
//
// Graphs are simple (no self-loops, no parallel edges), undirected, and
// immutable after construction. Vertices are dense integers [0, N()).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"rumor/internal/xrand"
)

// Vertex identifies a vertex. Vertices are dense in [0, N()).
type Vertex = int32

// Graph is an immutable simple undirected graph in CSR form.
//
// The neighbor lists are sorted, which makes duplicate detection, equality
// checks, and binary-search membership tests cheap.
type Graph struct {
	off       offsetStore // len N()+1; neighbors of v are neighbors[off.at(v):off.at(v+1)]
	neighbors []Vertex
	name      string
	landmarks map[string]Vertex
	backing   *mapping // non-nil when the CSR arrays alias an mmap'd file

	// Lazily built, immutable-once-built caches for the simulation hot
	// path (see index.go). Graphs are shared read-only across parallel
	// trials, so these amortize to one build per graph, not per trial.
	walkOnce sync.Once
	walkIdx  []uint64
	// walkRegular is the common degree of every vertex, recorded during
	// the WalkIndex build; 0 when degrees differ or no index was built
	// (see RegularDegree).
	walkRegular int
	aliasOnce   sync.Once
	alias       *xrand.Alias
	posDegOnce  sync.Once
	posDegCount int
	bipOnce     sync.Once
	bipartite   bool
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.off.len() - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.neighbors) / 2 }

// Name returns the human-readable name the generator gave this graph.
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int {
	lo, hi := g.off.span(v)
	return hi - lo
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	lo, hi := g.off.span(v)
	return g.neighbors[lo:hi]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v Vertex) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// EndpointCount returns the total number of (vertex, incident-edge) slots,
// i.e. 2*M(). A uniform index into [0, EndpointCount()) mapped through
// EndpointOwner samples a vertex exactly according to the stationary
// distribution deg(v)/2|E| of a random walk.
func (g *Graph) EndpointCount() int { return len(g.neighbors) }

// EndpointOwner returns the vertex that owns position i of the CSR neighbor
// array. Because vertex v owns exactly deg(v) positions, a uniform i yields
// a stationary-distributed vertex.
func (g *Graph) EndpointOwner(i int) Vertex {
	// Find the largest v with offsets[v] <= i, i.e. offsets[v+1] > i.
	v := sort.Search(g.N(), func(v int) bool { return g.off.at(v+1) > int64(i) })
	return Vertex(v)
}

// Landmark returns a named vertex recorded by the generator (for example
// "center" on a star, "root" or "leaf" on a heavy binary tree), so that
// experiments can pick the source vertices the paper's lemmas require.
func (g *Graph) Landmark(name string) (Vertex, bool) {
	v, ok := g.landmarks[name]
	return v, ok
}

// LandmarkNames returns the sorted list of landmark names.
func (g *Graph) LandmarkNames() []string {
	names := make([]string, 0, len(g.landmarks))
	for k := range g.landmarks {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MinDegree returns the smallest vertex degree. It is 0 only for graphs with
// isolated vertices, which the builders reject for connected families.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	m := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(Vertex(v)); d < m {
			m = d
		}
	}
	return m
}

// PositiveDegreeCount returns the number of non-isolated vertices,
// computed once per graph: the exchange protocols charge one message per
// such vertex per round, so per-trial constructors must not re-scan the
// shared immutable graph.
func (g *Graph) PositiveDegreeCount() int {
	g.posDegOnce.Do(func() {
		for v := 0; v < g.N(); v++ {
			if g.Degree(Vertex(v)) > 0 {
				g.posDegCount++
			}
		}
	})
	return g.posDegCount
}

// Bipartite reports whether the graph is 2-colorable, computed once per
// graph (see IsBipartite, the uncached reference): every meet-exchange and
// hybrid trial, every served response and every CLI summary asks, and the
// O(n + m) search must not be paid per asker on the shared immutable graph.
func (g *Graph) Bipartite() bool {
	g.bipOnce.Do(func() { g.bipartite = IsBipartite(g) })
	return g.bipartite
}

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(Vertex(v)); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the average degree 2M/N.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.neighbors)) / float64(g.N())
}

// IsRegular reports whether every vertex has the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.N() == 0 {
		return true, 0
	}
	d := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(Vertex(v)) != d {
			return false, 0
		}
	}
	return true, d
}

// Validate checks CSR structural invariants: monotone offsets, neighbor ids
// in range, sorted neighbor lists, no self-loops, no duplicate edges, and
// symmetric adjacency. Generators are trusted, but Validate is cheap enough
// to run in tests on every family.
func (g *Graph) Validate() error {
	n := g.N()
	if int64(len(g.neighbors)) != g.off.at(n) {
		return fmt.Errorf("graph: offsets end %d != len(neighbors) %d", g.off.at(n), len(g.neighbors))
	}
	for v := 0; v < n; v++ {
		if g.off.at(v) > g.off.at(v+1) {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		nb := g.Neighbors(Vertex(v))
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at index %d", v, i)
			}
			if !g.HasEdge(w, Vertex(v)) {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Every
// generator builds through BuildStream instead, which replays its edge
// emitter rather than staging per-vertex slices (half the peak memory).
// Builder remains for input that cannot be replayed — Decode reads
// external text once — and as the independent oracle FuzzStreamVsBuilder
// and the stream tests hold BuildStream to, byte for byte.
type Builder struct {
	n    int
	adj  [][]Vertex
	name string
	lmk  map[string]Vertex
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int, name string) *Builder {
	return &Builder{
		n:    n,
		adj:  make([][]Vertex, n),
		name: name,
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops are rejected.
// Duplicate edges are rejected at Build time.
func (b *Builder) AddEdge(u, v Vertex) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	return nil
}

// SetLandmark names a vertex for later retrieval via Graph.Landmark.
func (b *Builder) SetLandmark(name string, v Vertex) {
	if b.lmk == nil {
		b.lmk = make(map[string]Vertex)
	}
	b.lmk[name] = v
}

// Build finalizes the graph. It sorts adjacency lists and returns an error
// if any duplicate edge was added. The offset array comes out in the
// narrowest width the endpoint count allows (see offsetStore).
func (b *Builder) Build() (*Graph, error) {
	total := int64(0)
	for v, nb := range b.adj {
		slices.Sort(nb)
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, nb[i])
			}
		}
		total += int64(len(nb))
	}
	off := newOffsetStore(b.n, total)
	for v, nb := range b.adj {
		off.set(v+1, off.at(v)+int64(len(nb)))
	}
	neighbors := make([]Vertex, 0, total)
	for _, nb := range b.adj {
		neighbors = append(neighbors, nb...)
	}
	return &Graph{
		off:       off,
		neighbors: neighbors,
		name:      b.name,
		landmarks: b.lmk,
	}, nil
}
