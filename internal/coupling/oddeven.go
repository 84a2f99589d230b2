package coupling

import (
	"fmt"
	"math"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// OddEvenResult is the outcome of the Section 6 coupling, which proves the
// converse direction of Theorem 1 (visit-exchange is at most a constant
// factor slower than push).
type OddEvenResult struct {
	// TPush is push's broadcast time under the coupling.
	TPush int
	// TVisitx is visit-exchange's broadcast time under the coupling.
	TVisitx int
	// Tau[u] is u's informing round in push.
	Tau []int
	// TV[u] is u's informing round in visit-exchange.
	TV []int
}

// RunOddEven executes the odd-even coupling of Section 6.1: the list of
// neighbors a vertex u samples in push is identified with the destinations
// of the odd-round departures that follow each even-round visit to u in
// visit-exchange (p^odd_u(i) = π_u(i) = w_u(i)). Even-round moves remain
// independent, which is the paper's trick for breaking the dependence of
// the first-information path on future randomness.
//
// Lemma 22 states that under this coupling t'_u ≤ c·(τ_u + log n) w.h.p.;
// MaxSlowdown exposes the per-realization statistic so tests can check the
// bound empirically.
func RunOddEven(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, cfg Config) (*OddEvenResult, error) {
	n := g.N()
	if s < 0 || int(s) >= n {
		return nil, fmt.Errorf("coupling: source %d out of range", s)
	}
	if g.M() == 0 {
		return nil, fmt.Errorf("coupling: graph has no edges")
	}
	na := cfg.Agents
	if na <= 0 {
		na = n
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100 * n * n
	}

	choices := make([][]graph.Vertex, n)
	choice := func(u graph.Vertex, i int) graph.Vertex { // 1-based
		for len(choices[u]) < i {
			nb := g.Neighbors(u)
			choices[u] = append(choices[u], nb[rng.IntN(len(nb))])
		}
		return choices[u][i-1]
	}

	res := &OddEvenResult{
		TPush:   -1,
		TVisitx: -1,
		Tau:     make([]int, n),
		TV:      make([]int, n),
	}
	for u := 0; u < n; u++ {
		res.Tau[u] = -1
		res.TV[u] = -1
	}

	// --- visit-exchange side ---------------------------------------------
	walks, err := agents.New(g, agents.Config{Count: na}, rng)
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}
	pos := walks.Positions()
	informedV := make([]bool, n)
	informedA := make([]bool, na)
	countV := 1
	informedV[s] = true
	res.TV[s] = 0

	// evenVisits[u] counts even-round visits to u since t_u; forcedIdx[g]
	// holds the 1-based choice index agent g must follow in the next (odd)
	// round, or 0.
	evenVisits := make([]int, n)
	forcedIdx := make([]int, na)
	for i, u := range pos {
		if u == s {
			informedA[i] = true
		}
	}
	// Round 0 is even: visits to informed vertices assign forced moves for
	// round 1.
	for i, u := range pos {
		if informedV[u] {
			evenVisits[u]++
			forcedIdx[i] = evenVisits[u]
		}
	}

	for t := 1; countV < n && t <= maxRounds; t++ {
		odd := t%2 == 1
		// In odd rounds, forced agents take their coupled choice instead of
		// their own walk draw, in agent-id order.
		walks.Step()
		pos = walks.Positions()
		prev := walks.Prev()
		if odd {
			for i, idx := range forcedIdx {
				if idx > 0 {
					forcedIdx[i] = 0
					pos[i] = choice(prev[i], idx)
				}
			}
		}
		// Pass 1: previously informed agents inform their vertices.
		for i, to := range pos {
			if informedA[i] {
				if !informedV[to] {
					informedV[to] = true
					res.TV[to] = t
					countV++
				}
			}
		}
		// Pass 2: agents on informed vertices become informed.
		for i, u := range pos {
			if !informedA[i] && informedV[u] {
				informedA[i] = true
			}
		}
		// Even rounds tag visits for the next odd round's coupled moves.
		if !odd {
			for i, u := range pos {
				if informedV[u] {
					evenVisits[u]++
					forcedIdx[i] = evenVisits[u]
				} else {
					forcedIdx[i] = 0
				}
			}
		}
		if countV == n {
			res.TVisitx = t
		}
	}

	// --- push side ---------------------------------------------------------
	informedP := make([]bool, n)
	informedP[s] = true
	res.Tau[s] = 0
	frontier := []graph.Vertex{s}
	count := 1
	for t := 1; count < n && t <= maxRounds; t++ {
		senders := frontier
		for _, u := range senders {
			v := choice(u, t-res.Tau[u])
			if !informedP[v] {
				informedP[v] = true
				res.Tau[v] = t
				count++
				frontier = append(frontier, v)
			}
		}
		if count == n {
			res.TPush = t
		}
	}
	return res, nil
}

// MaxSlowdown returns max_u t'_u / (τ_u + ln n) — the per-realization
// statistic bounded by a constant in Lemma 22. Vertices uninformed in
// either process yield an error.
func (r *OddEvenResult) MaxSlowdown() (float64, error) {
	logn := math.Log(float64(len(r.Tau)))
	worst := 0.0
	for u := range r.Tau {
		if r.Tau[u] < 0 || r.TV[u] < 0 {
			return 0, fmt.Errorf("coupling: vertex %d uninformed (tau=%d, tv=%d)", u, r.Tau[u], r.TV[u])
		}
		s := float64(r.TV[u]) / (float64(r.Tau[u]) + logn)
		if s > worst {
			worst = s
		}
	}
	return worst, nil
}
