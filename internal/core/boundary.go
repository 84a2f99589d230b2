package core

import (
	"rumor/internal/bitset"
	"rumor/internal/graph"
)

// Draws that cannot change state, and draws read from the other endpoint.
//
// Every call is keyed (seed, caller, round) — the paper's coupling gives
// each vertex a fixed list of neighbor choices indexed by time, and the
// counter-based streams are that list — so "whom does u call in round t"
// is a pure function anybody can evaluate (neighborSampler.call), and
// leaving a draw out shifts nobody else's randomness. The fused call
// protocols (BatchedPush, BatchedPushPull, BatchedHybrid) use that twice,
// and every Result stays bit-identical to the plain every-caller-draws
// evaluation: the serial push-pull and hybrid keep it as the reference,
// and push, whose bundle is its only implementation, is pinned by
// TestGoldenEngines and TestExactPushLaw.
//
// Skip draws that cannot change state (boundary mode). Push skips informed
// senders whose whole neighborhood is informed; push-pull and the hybrid's
// exchange phase skip vertices with no neighbor in the opposite informed
// state. The structures below keep those sets incrementally: construction
// is one O(n + Σ deg(informed)) pass paid on entry, maintenance O(deg(v))
// per newly informed vertex v, a round costs only its active list. Entry
// is triggered by the owning protocol after two consecutive stagnant
// rounds (boundaryStagnantRounds) — a single informing-free round also
// occurs in ordinary finishing tails, so the build waits until stagnation
// repeats — and is never left. On the paper's waiting-phase families (the
// star's coupon-collector tail, the double star's bridge wait) this turns
// Θ(n) work per stagnant round into Θ(1), which no per-round scan of
// either side of the cut can match (the star's uninformed side is Θ(n)
// for Θ(n log n) rounds): boundary mode takes precedence, and the side
// rule below is not consulted once a lane is in it.
//
// Read a draw from either endpoint (pickSide). On the families that never
// stagnate — regular graphs of degree ≥ log n, preferential attachment —
// a transfer still needs an informed and an uninformed endpoint, and it
// can be found from whichever side of the cut is cheaper. Push from the
// uninformed side: v is informed iff the replayed call of one of its
// informed neighbors lands on it, Σ deg(U) replays instead of |I| draws —
// the last ~ln n rounds, when everybody draws to reach a vanishing
// uninformed set. The exchange from the informed side (u's own push, plus
// the replayed call of each uninformed neighbor, which may pull from u)
// while the informed set is a handful, or from the uninformed side (v's
// own pull, else its informed neighbors' replayed calls) once the
// uninformed set is, against the draw-everyone-then-collect sweep in
// between. The rule is "least cost", per lane per round, a pure function
// of (|I|, Σ deg(I), n, 2M) with one measured constant (replayUnits) and
// nothing to configure. The sets are enumerated off the informed bitset's
// words and Σ deg(I) is kept by the commit loops.

// boundaryStagnantRounds is the number of consecutive rounds that inform
// nobody before a protocol pays the O(M) boundary construction.
const boundaryStagnantRounds = 2

// side names where a non-boundary round of a fused call protocol is
// evaluated from; every side yields the same newly informed set.
type side uint8

const (
	sideRule       side = iota // as a forced value: none, pickSide decides
	sideAll                    // every caller draws: push's frontier pass, the exchange's dense sweep
	sideInformed               // exchange: each informed vertex's call and its uninformed neighbors'
	sideUninformed             // each uninformed vertex's call (exchange) and its informed neighbors'
	numSides
)

// replayUnits prices a call resolved out of vertex order — idx[x], then
// the neighbor slot it selects: two dependent cache misses — in units of
// the dense sweep, which streams its draws and pays one bit test to
// collect each. Measured on hypercube:16, randreg:65536,16 and
// barabasi:16384,4 at K = 8: 13-17 ns a replay against ~2 ns a sweep unit
// in the rounds where the choice arises (one side nearly empty, so the
// sweep's branches predict), and whole rounds forced to each side cross
// the sweep's time at this ratio on all three (at half of it the last
// informed-side round costs two sweeps).
const replayUnits = 8

// pickSide returns the side from which a round costs the least, and that
// cost, for a lane with inf informed vertices of total degree degInf on a
// graph of n vertices and twoM endpoints.
//
// Push (exchange false) resolves calls whichever way it goes — |I| from
// the informed side, which is its every-caller pass, Σ deg(U) from the
// uninformed side — so it counts calls.
//
// The exchange counts sweep units: 2n for the sweep (a draw and a collect
// per vertex); a replay for every informed vertex and every neighbor of
// one from the informed side (while that side is the small one its
// neighbors are all but all uninformed); and from the uninformed side a
// replay for every uninformed vertex's own call plus a look at each of its
// neighbors (while that side is the small one the own call nearly always
// reaches an informed vertex, and the scan behind it is rare).
//
// Ties keep the every-caller pass, so a sparse side is never chosen at the
// cost of the pass it replaces.
func pickSide(exchange bool, inf int, degInf int64, n int, twoM int64) (side, int64) {
	unf, degUnf := int64(n-inf), twoM-degInf
	if !exchange {
		if degUnf < int64(inf) {
			return sideUninformed, degUnf
		}
		return sideAll, int64(inf)
	}
	s, cost := sideAll, 2*int64(n)
	if c := replayUnits * (degInf + int64(inf)); c < cost {
		s, cost = sideInformed, c
	}
	if c := replayUnits*unf + degUnf; c < cost {
		s, cost = sideUninformed, c
	}
	return s, cost
}

// pushBoundary tracks the push protocol's boundary senders: informed
// vertices with at least one uninformed neighbor. Only they need to draw —
// any other informed vertex's send provably lands on an informed neighbor.
type pushBoundary struct {
	active    []graph.Vertex // informed senders with >= 1 uninformed neighbor
	activeIdx []int32        // position of v in active, -1 if absent
	remUninf  []int32        // per-vertex count of uninformed neighbors
}

// build constructs the boundary structures from the current informed set
// (frontier lists every informed vertex): one O(n + Σ deg(informed)) pass,
// paid once on boundary entry.
func (b *pushBoundary) build(g *graph.Graph, frontier []graph.Vertex) {
	n := g.N()
	b.active = b.active[:0]
	b.activeIdx = make([]int32, n)
	b.remUninf = make([]int32, n)
	for v := 0; v < n; v++ {
		b.activeIdx[v] = -1
		b.remUninf[v] = int32(g.Degree(graph.Vertex(v)))
	}
	for _, w := range frontier {
		for _, x := range g.Neighbors(w) {
			b.remUninf[x]--
		}
	}
	for _, w := range frontier {
		if b.remUninf[w] > 0 {
			b.activeIdx[w] = int32(len(b.active))
			b.active = append(b.active, w)
		}
	}
}

// onInformed maintains the active set after v became informed: v's
// neighbors each lose an uninformed neighbor (possibly retiring them), and
// v itself starts sending if any neighbor is still uninformed.
func (b *pushBoundary) onInformed(g *graph.Graph, v graph.Vertex) {
	for _, x := range g.Neighbors(v) {
		b.remUninf[x]--
		if b.remUninf[x] == 0 {
			if i := b.activeIdx[x]; i >= 0 {
				// Swap-remove x from active.
				last := b.active[len(b.active)-1]
				b.active[i] = last
				b.activeIdx[last] = i
				b.active = b.active[:len(b.active)-1]
				b.activeIdx[x] = -1
			}
		}
	}
	if b.remUninf[v] > 0 {
		b.activeIdx[v] = int32(len(b.active))
		b.active = append(b.active, v)
	}
}

// exchangeBoundary tracks the exchange boundary of push-pull and the
// hybrid's exchange phase: vertices with a neighbor in the opposite
// informed state, i.e. whose exchange can transfer the rumor.
type exchangeBoundary struct {
	active    []graph.Vertex // vertices with a neighbor of opposite state
	activeIdx []int32
	remUninf  []int32 // per-vertex count of uninformed neighbors
	infNbrs   []int32 // per-vertex count of informed neighbors
}

// build constructs the boundary structures from the current informed set:
// one O(n + Σ deg(informed)) pass, paid once on boundary entry.
func (b *exchangeBoundary) build(g *graph.Graph, informed *bitset.Set) {
	n := g.N()
	b.active = b.active[:0]
	b.activeIdx = make([]int32, n)
	b.remUninf = make([]int32, n)
	b.infNbrs = make([]int32, n)
	for v := 0; v < n; v++ {
		b.activeIdx[v] = -1
		b.remUninf[v] = int32(g.Degree(graph.Vertex(v)))
	}
	for v := 0; v < n; v++ {
		if informed.Test(v) {
			for _, x := range g.Neighbors(graph.Vertex(v)) {
				b.remUninf[x]--
				b.infNbrs[x]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if b.isBoundary(informed, graph.Vertex(v)) {
			b.activeIdx[v] = int32(len(b.active))
			b.active = append(b.active, graph.Vertex(v))
		}
	}
}

// isBoundary reports whether v has a neighbor in the opposite informed
// state.
func (b *exchangeBoundary) isBoundary(informed *bitset.Set, v graph.Vertex) bool {
	if informed.Test(int(v)) {
		return b.remUninf[v] > 0
	}
	return b.infNbrs[v] > 0
}

// onInformed updates the active set after v became informed (informed must
// already have v set): v's neighbors each trade an uninformed neighbor for
// an informed one (activating uninformed ones that just gained their first
// informed neighbor, retiring informed ones that lost their last
// uninformed one), and v itself joins or leaves.
func (b *exchangeBoundary) onInformed(g *graph.Graph, informed *bitset.Set, v graph.Vertex) {
	for _, x := range g.Neighbors(v) {
		b.remUninf[x]--
		b.infNbrs[x]++
		b.setActive(x, b.isBoundary(informed, x))
	}
	b.setActive(v, b.isBoundary(informed, v))
}

func (b *exchangeBoundary) setActive(v graph.Vertex, want bool) {
	i := b.activeIdx[v]
	if want == (i >= 0) {
		return
	}
	if want {
		b.activeIdx[v] = int32(len(b.active))
		b.active = append(b.active, v)
		return
	}
	last := b.active[len(b.active)-1]
	b.active[i] = last
	b.activeIdx[last] = i
	b.active = b.active[:len(b.active)-1]
	b.activeIdx[v] = -1
}
