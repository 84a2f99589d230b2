package graph

import "rumor/internal/bitset"

// BFS returns the array of BFS distances from src; unreachable vertices get
// distance -1.
func BFS(g *Graph, src Vertex) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]Vertex, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected. It keeps O(n) bits of visited state and no
// per-vertex distance array, which matters where it is called on a
// just-built giant randreg graph whose CSR already owns the heap budget:
// the DFS stack, which can reach O(n) entries, lives in the samplers'
// width-adaptive, file-backed-when-large scratch, so only the n-bit
// visited set stays on the heap.
func IsConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	visited := bitset.New(n)
	stack := newScratch(n, int64(n))
	defer stack.release()
	top := int64(1)
	stack.set(0, 0)
	visited.Set(0)
	seen := 1
	for top > 0 {
		top--
		u := stack.at(top)
		for _, v := range g.Neighbors(u) {
			if !visited.Test(int(v)) {
				visited.Set(int(v))
				seen++
				stack.set(top, v)
				top++
			}
		}
	}
	return seen == n
}

// Components returns the number of connected components and a component id
// per vertex.
func Components(g *Graph) (int, []int32) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	count := int32(0)
	queue := make([]Vertex, 0)
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], Vertex(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return int(count), comp
}

// IsBipartite reports whether the graph is bipartite (2-colorable). The
// agent protocols use this to decide whether lazy walks are required for
// meet-exchange to terminate (Section 3 of the paper). It searches the
// whole graph on every call; callers holding a *Graph they will ask again
// use the memoized g.Bipartite(), which the tests compare against this.
func IsBipartite(g *Graph) bool {
	color := make([]int8, g.N())
	queue := make([]Vertex, 0)
	for s := 0; s < g.N(); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue = append(queue[:0], Vertex(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				switch color[w] {
				case 0:
					color[w] = -color[u]
					queue = append(queue, w)
				case color[u]:
					return false
				}
			}
		}
	}
	return true
}

// Eccentricity returns the largest BFS distance from v; -1 if the graph is
// disconnected from v.
func Eccentricity(g *Graph, v Vertex) int {
	ecc := 0
	for _, d := range BFS(g, v) {
		if d < 0 {
			return -1
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the exact diameter via all-pairs BFS. O(n·m); intended
// for the laptop-scale graphs in this repository's tests and experiments.
// Returns -1 for disconnected graphs.
func Diameter(g *Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		e := Eccentricity(g, Vertex(v))
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterEstimate returns a fast lower bound on the diameter using the
// classic double-sweep heuristic (exact on trees). Returns -1 for
// disconnected graphs.
func DiameterEstimate(g *Graph) int {
	if g.N() == 0 {
		return 0
	}
	dist := BFS(g, 0)
	far := Vertex(0)
	for v, d := range dist {
		if d < 0 {
			return -1
		}
		if d > dist[far] {
			far = Vertex(v)
		}
	}
	return Eccentricity(g, far)
}

// GiantComponent extracts the largest connected component as a new graph
// with vertices renumbered densely. The second return value maps new vertex
// ids back to ids in the original graph. Random-graph models such as
// Chung-Lu and G(n,p) can produce isolated vertices; broadcast experiments
// run on the giant component.
func GiantComponent(g *Graph) (*Graph, []Vertex) {
	count, comp := Components(g)
	if count == 0 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	oldToNew := make([]Vertex, g.N())
	newToOld := make([]Vertex, 0, sizes[best])
	for v := 0; v < g.N(); v++ {
		if comp[v] == int32(best) {
			oldToNew[v] = Vertex(len(newToOld))
			newToOld = append(newToOld, Vertex(v))
		} else {
			oldToNew[v] = -1
		}
	}
	// A subgraph of a simple graph cannot emit an invalid edge.
	giant := mustStream(StreamSpec{
		N:    len(newToOld),
		Name: g.name + "-giant",
		Emit: func(_ int, emit func(u, v Vertex)) {
			for _, old := range newToOld {
				for _, w := range g.Neighbors(old) {
					if old < w && oldToNew[w] >= 0 {
						emit(oldToNew[old], oldToNew[w])
					}
				}
			}
		},
	})
	return giant, newToOld
}
