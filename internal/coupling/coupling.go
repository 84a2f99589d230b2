// Package coupling makes the paper's main technical argument (Sections 5
// and 6) executable: it runs push and visit-exchange under the coupling
// that identifies, for each vertex u, the list of neighbors u samples in
// push with the list of destinations of agents departing u (after u is
// informed) in visit-exchange.
//
// Under this coupling the paper's Lemma 13 — τ_u ≤ C_u(t_u), where τ_u is
// u's informing round in push and C_u the congestion counter built from
// visit-exchange's visit counts — holds deterministically in every
// realization, not just with high probability. The package exposes the
// counters and the canonical-walk construction of Lemma 14 so tests can
// verify both exactly.
package coupling

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Config configures a coupled run.
type Config struct {
	// Agents is |A|; defaults to n when zero.
	Agents int
	// MaxRounds bounds both processes; defaults to a generous cap.
	MaxRounds int
	// RecordZ keeps the full per-round visit-count history so canonical
	// walks can be audited (Lemma 14). Costs O(rounds · n) memory.
	RecordZ bool
}

// Result holds the outcome of one coupled realization.
type Result struct {
	// TVisitx is the round when all vertices were informed in
	// visit-exchange (-1 if MaxRounds hit).
	TVisitx int
	// TPush is the round when all vertices were informed in the coupled
	// push process (-1 if MaxRounds hit).
	TPush int
	// TV[u] is the round u was informed in visit-exchange.
	TV []int
	// Tau[u] is the round u was informed in push.
	Tau []int
	// C[u] is the C-counter value C_u(t_u) defined in Eq. (4).
	C []int64
	// Parent[u] is the S_u-minimizing neighbor used when initializing
	// C_u (Lemma 13's information path); -1 for the source.
	Parent []graph.Vertex
	// ZHist[t][u] is |Z_u(t)|, the number of agents visiting u in round t
	// (only when Config.RecordZ).
	ZHist [][]int32
}

// Run executes one coupled realization on g from source s.
func Run(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, cfg Config) (*Result, error) {
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

	// Shared choice lists w_u(i). Both processes consume entries by index;
	// entries are generated lazily but exactly once, so the coupling
	// π_u(i) = p_u(i) = w_u(i) holds by construction.
	choices := make([][]graph.Vertex, n)
	choice := func(u graph.Vertex, i int) graph.Vertex { // i is 1-based
		for len(choices[u]) < i {
			nb := g.Neighbors(u)
			choices[u] = append(choices[u], nb[rng.IntN(len(nb))])
		}
		return choices[u][i-1]
	}

	res := &Result{
		TVisitx: -1,
		TPush:   -1,
		TV:      make([]int, n),
		Tau:     make([]int, n),
		C:       make([]int64, n),
		Parent:  make([]graph.Vertex, n),
	}
	for u := 0; u < n; u++ {
		res.TV[u] = -1
		res.Tau[u] = -1
		res.Parent[u] = -1
	}

	if err := runVisitxSide(g, s, rng, na, maxRounds, cfg.RecordZ, choice, res); err != nil {
		return nil, err
	}
	runPushSide(g, s, maxRounds, choice, res)
	return res, nil
}

// runVisitxSide runs visit-exchange, routing departures from informed
// vertices through the shared choice lists and maintaining the C-counters
// of Eq. (4).
func runVisitxSide(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, na, maxRounds int, recordZ bool, choice func(graph.Vertex, int) graph.Vertex, res *Result) error {
	n := g.N()
	walks, err := agents.New(g, agents.Config{Count: na}, rng)
	if err != nil {
		return fmt.Errorf("coupling: %w", err)
	}
	pos := walks.Positions()
	informedV := make([]bool, n)
	informedA := make([]bool, na)
	countV := 0

	// departs[u] counts coupled departures from u (consumed choice
	// entries); cumVisits[u] is Σ_{t_u <= t' < t} |Z_u(t')|.
	departs := make([]int, n)
	cumVisits := make([]int64, n)
	occ := agents.NewOccupancy(n)

	informVertex := func(u graph.Vertex, t int, parent graph.Vertex, base int64) {
		informedV[u] = true
		countV++
		res.TV[u] = t
		res.Parent[u] = parent
		res.C[u] = base
	}

	// Round zero: source informed, agents on it informed; Z(0) is the
	// initial placement.
	informVertex(s, 0, -1, 0)
	occ.NextRound()
	for i, p := range pos {
		occ.Add(p)
		if p == s {
			informedA[i] = true
		}
	}
	recordRound := func(t int) {
		if !recordZ {
			return
		}
		row := make([]int32, n)
		for _, v := range occ.Touched() {
			row[v] = occ.Count(v)
		}
		res.ZHist = append(res.ZHist, row)
	}
	recordRound(0)
	// End of round 0: accumulate visits at informed vertices.
	for _, v := range occ.Touched() {
		if informedV[v] {
			cumVisits[v] += int64(occ.Count(v))
		}
	}

	newlyV := make([]graph.Vertex, 0, 64)
	minBase := make(map[graph.Vertex]int64, 16)
	minParent := make(map[graph.Vertex]graph.Vertex, 16)

	for t := 1; countV < n && t <= maxRounds; t++ {
		// Agents departing an informed vertex follow the shared choice
		// list, in agent-id order (the paper's tie-breaking), instead of
		// their own walk draw.
		walks.Step()
		pos = walks.Positions()
		prev := walks.Prev()
		for i, from := range prev {
			if informedV[from] {
				departs[from]++
				pos[i] = choice(from, departs[from])
			}
		}

		// Z_u(t): occupancy after the move.
		occ.NextRound()
		for _, p := range pos {
			occ.Add(p)
		}
		recordRound(t)

		// Pass 1: previously informed agents inform vertices; collect
		// S_u minimization data from their origin vertices.
		newlyV = newlyV[:0]
		clear(minBase)
		clear(minParent)
		for i := 0; i < na; i++ {
			if !informedA[i] {
				continue
			}
			to := pos[i]
			if informedV[to] {
				continue
			}
			from := prev[i]
			// from is informed with t_from < t (see Section 5.3): the
			// agent was informed in a previous round, so its round-(t-1)
			// vertex was informed by round t-1 at the latest.
			cand := res.C[from] + cumVisits[from]
			if b, ok := minBase[to]; !ok || cand < b {
				minBase[to] = cand
				minParent[to] = from
				if !ok {
					newlyV = append(newlyV, to)
				}
			}
		}
		for _, u := range newlyV {
			informVertex(u, t, minParent[u], minBase[u])
		}

		// Pass 2: agents on informed vertices (including this round's)
		// become informed.
		for i, p := range pos {
			if !informedA[i] && informedV[p] {
				informedA[i] = true
			}
		}

		// End of round: C_u(t+1) accumulates |Z_u(t)| for informed u.
		for _, v := range occ.Touched() {
			if informedV[v] {
				cumVisits[v] += int64(occ.Count(v))
			}
		}

		if countV == n {
			res.TVisitx = t
		}
	}
	if countV == n && res.TVisitx < 0 {
		res.TVisitx = 0 // degenerate single-vertex case
	}
	return nil
}

// runPushSide simulates push using the shared choice lists: vertex u,
// informed at τ_u, samples choice(u, i) in round τ_u + i.
func runPushSide(g *graph.Graph, s graph.Vertex, maxRounds int, choice func(graph.Vertex, int) graph.Vertex, res *Result) {
	n := g.N()
	informed := make([]bool, n)
	informed[s] = true
	res.Tau[s] = 0
	frontier := []graph.Vertex{s}
	count := 1
	for t := 1; count < n && t <= maxRounds; t++ {
		senders := frontier
		for _, u := range senders {
			v := choice(u, t-res.Tau[u])
			if !informed[v] {
				informed[v] = true
				res.Tau[v] = t
				count++
				frontier = append(frontier, v)
			}
		}
		if count == n {
			res.TPush = t
		}
	}
}

// VerifyLemma13 checks the deterministic invariant τ_u ≤ C_u(t_u) for every
// vertex informed in both processes. It returns an error naming the first
// violating vertex, or nil.
func (r *Result) VerifyLemma13() error {
	for u := range r.Tau {
		if r.Tau[u] < 0 || r.TV[u] < 0 {
			return fmt.Errorf("coupling: vertex %d uninformed (tau=%d, tv=%d)", u, r.Tau[u], r.TV[u])
		}
		if int64(r.Tau[u]) > r.C[u] {
			return fmt.Errorf("coupling: Lemma 13 violated at vertex %d: tau=%d > C=%d", u, r.Tau[u], r.C[u])
		}
	}
	return nil
}

// CanonicalWalk reconstructs the canonical walk of Lemma 14 that certifies
// C_u(t_u): the information path s = v_0, v_1, ..., v_k = u (via Parent),
// padded with stays so step j of the walk happens at round t_{v_j}. It
// returns the walk θ as a vertex sequence of length TV[u]+1.
func (r *Result) CanonicalWalk(u graph.Vertex) []graph.Vertex {
	// Collect the parent path back to the source.
	path := []graph.Vertex{u}
	for r.Parent[path[len(path)-1]] >= 0 {
		path = append(path, r.Parent[path[len(path)-1]])
	}
	// Reverse to source-first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	walk := make([]graph.Vertex, 0, r.TV[u]+1)
	walk = append(walk, path[0])
	for j := 1; j < len(path); j++ {
		// Stay at v_{j-1} for rounds t_{v_{j-1}}+1 .. t_{v_j}-1, then move.
		for t := r.TV[path[j-1]] + 1; t < r.TV[path[j]]; t++ {
			walk = append(walk, path[j-1])
		}
		walk = append(walk, path[j])
	}
	return walk
}

// WalkCongestion computes Q(θ) = Σ_{0 <= t < len(θ)-1} |Z_{θ_t}(t)| from the
// recorded visit-count history. Requires Config.RecordZ.
func (r *Result) WalkCongestion(walk []graph.Vertex) (int64, error) {
	if r.ZHist == nil {
		return 0, fmt.Errorf("coupling: no Z history recorded; set Config.RecordZ")
	}
	if len(walk) == 0 {
		return 0, fmt.Errorf("coupling: empty walk")
	}
	var q int64
	for t := 0; t < len(walk)-1; t++ {
		if t >= len(r.ZHist) {
			return 0, fmt.Errorf("coupling: walk longer than recorded history")
		}
		q += int64(r.ZHist[t][walk[t]])
	}
	return q, nil
}
