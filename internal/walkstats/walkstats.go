// Package walkstats estimates the classical random-walk quantities the
// paper's related work builds on: cover time (Aleliunas et al. [1], multiple
// walks [2, 23]), hitting time, and the meeting time of two walks, which
// Dimitriou, Nikoletseas & Spirakis [16] relate to meet-exchange's broadcast
// time (T_meetx = O(meeting time · log n), and the bound is tight).
package walkstats

import (
	"fmt"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// CoverTime simulates one simple random walk from start and returns the
// number of steps until every vertex has been visited, or ok=false if
// maxSteps (<= 0 means 64·n³, far beyond the O(nm) worst case at this
// scale) is exhausted first.
func CoverTime(g *graph.Graph, start graph.Vertex, rng *xrand.RNG, maxSteps int) (int, bool) {
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = 64 * n * n * n
	}
	visited := bitset.New(n)
	visited.Set(int(start))
	remaining := n - 1
	cur := start
	for step := 1; step <= maxSteps; step++ {
		nb := g.Neighbors(cur)
		cur = nb[rng.IntN(len(nb))]
		if !visited.Test(int(cur)) {
			visited.Set(int(cur))
			remaining--
			if remaining == 0 {
				return step, true
			}
		}
	}
	return maxSteps, false
}

// HittingTime simulates a walk from `from` and returns the number of steps
// until it first visits `to`.
func HittingTime(g *graph.Graph, from, to graph.Vertex, rng *xrand.RNG, maxSteps int) (int, bool) {
	if from == to {
		return 0, true
	}
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = 64 * n * n * n
	}
	cur := from
	for step := 1; step <= maxSteps; step++ {
		nb := g.Neighbors(cur)
		cur = nb[rng.IntN(len(nb))]
		if cur == to {
			return step, true
		}
	}
	return maxSteps, false
}

// MeetingTime simulates two independent walks from u and v (lazy if lazy is
// set, which is required on bipartite graphs) and returns the number of
// rounds until they occupy the same vertex.
func MeetingTime(g *graph.Graph, u, v graph.Vertex, lazy bool, rng *xrand.RNG, maxSteps int) (int, bool) {
	if u == v {
		return 0, true
	}
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = 64 * n * n * n
	}
	step1 := func(cur graph.Vertex) graph.Vertex {
		if lazy && rng.Bernoulli(0.5) {
			return cur
		}
		nb := g.Neighbors(cur)
		return nb[rng.IntN(len(nb))]
	}
	a, b := u, v
	for step := 1; step <= maxSteps; step++ {
		a = step1(a)
		b = step1(b)
		if a == b {
			return step, true
		}
	}
	return maxSteps, false
}

// EstimateCoverTime returns summary statistics of the cover time over
// independent trials from stationary starts.
func EstimateCoverTime(g *graph.Graph, trials int, seed uint64) (stats.Summary, error) {
	if trials <= 0 {
		return stats.Summary{}, fmt.Errorf("walkstats: trials must be positive")
	}
	times := make([]float64, trials)
	for i := range times {
		rng := xrand.New(xrand.Derive(seed, i))
		start := g.EndpointOwner(rng.IntN(g.EndpointCount()))
		t, ok := CoverTime(g, start, rng, 0)
		if !ok {
			return stats.Summary{}, fmt.Errorf("walkstats: cover time trial %d exhausted its budget", i)
		}
		times[i] = float64(t)
	}
	return stats.Summarize(times), nil
}

// EstimateMeetingTime returns summary statistics of the meeting time of two
// stationary-started walks. Laziness is chosen automatically on bipartite
// graphs, mirroring meet-exchange.
func EstimateMeetingTime(g *graph.Graph, trials int, seed uint64) (stats.Summary, error) {
	if trials <= 0 {
		return stats.Summary{}, fmt.Errorf("walkstats: trials must be positive")
	}
	lazy := g.Bipartite()
	times := make([]float64, trials)
	for i := range times {
		rng := xrand.New(xrand.Derive(seed, i))
		u := g.EndpointOwner(rng.IntN(g.EndpointCount()))
		v := g.EndpointOwner(rng.IntN(g.EndpointCount()))
		t, ok := MeetingTime(g, u, v, lazy, rng, 0)
		if !ok {
			return stats.Summary{}, fmt.Errorf("walkstats: meeting time trial %d exhausted its budget", i)
		}
		times[i] = float64(t)
	}
	return stats.Summarize(times), nil
}
