package core

import (
	"math/bits"

	"rumor/internal/bitset"
	"rumor/internal/graph"
)

// Draws that cannot change state, and draws read from the other endpoint.
//
// Every call is keyed (seed, caller, round) — the paper's coupling gives
// each vertex a fixed list of neighbor choices indexed by time, and the
// counter-based streams are that list — so "whom does u call in round t"
// is a pure function anybody can evaluate (neighborSampler.call), and
// leaving a draw out shifts nobody else's randomness. The call
// protocols (callState: Call's push and push-pull, Hybrid's
// exchange phase) use that twice, and every Result stays bit-identical to
// the plain every-caller-draws evaluation, which test code keeps as the
// reference (plain_test.go); the processes, each its protocol's only
// implementation, are also pinned by TestGoldenEngines and, for push and
// push-pull, by their exact laws.
//
// Skip draws that cannot change state (boundary mode). Only a vertex
// whose call can transfer the rumor draws: an informed vertex with an
// uninformed neighbor, and, with pull, an uninformed vertex with an
// informed neighbor. callBoundary keeps that set incrementally:
// construction is one O(n + Σ deg(informed)) pass paid on entry,
// maintenance O(deg(v)) per newly informed vertex v, a round costs only
// its active list. Entry is triggered by the trial after two consecutive
// stagnant rounds (boundaryStagnantRounds) — a single informing-free round
// also occurs in ordinary finishing tails, so the build waits until
// stagnation repeats — and is never left. On the paper's waiting-phase
// families (the star's coupon-collector tail, the double star's bridge
// wait) this turns Θ(n) work per stagnant round into Θ(1), which no
// per-round scan of either side of the cut can match (the star's
// uninformed side is Θ(n) for Θ(n log n) rounds): boundary mode takes
// precedence, and the side rule below is not consulted once a trial is in
// it.
//
// Read a draw from either endpoint (pickSide). On the families that never
// stagnate — regular graphs of degree ≥ log n, preferential attachment —
// a transfer still needs an informed and an uninformed endpoint, and it
// can be found from whichever side of the cut is cheaper. Push from the
// informed side is its every-caller pass, |I| draws; from the uninformed
// side v is informed iff the replayed call of one of its informed
// neighbors lands on it, Σ deg(U) replays — the last ~ln n rounds, when
// everybody draws to reach a vanishing uninformed set. Push-pull from the
// informed side (u's own push, plus the replayed call of each uninformed
// neighbor, which may pull from u) while the informed set is a handful,
// or from the uninformed side (v's own pull, else its informed neighbors'
// replayed calls) once the uninformed set is, against the
// draw-everyone-then-collect sweep in between. The rule is "least cost",
// per trial per round, a pure function of (|I|, Σ deg(I), n, 2M) with one
// measured constant (replayUnits) and nothing to configure. The sets are
// enumerated off the informed bitset's words and Σ deg(I) is kept by the
// commit loop.

// boundaryStagnantRounds is the number of consecutive rounds that inform
// nobody before a protocol pays the O(M) boundary construction.
const boundaryStagnantRounds = 2

// side names where a non-boundary round of a call trial is evaluated from;
// every side yields the same newly informed set.
type side uint8

const (
	sideRule       side = iota // as a forced value: none, pickSide decides
	sideAll                    // push-pull's dense sweep: every vertex's call resolved and collected in one pass
	sideInformed               // each informed vertex's call (push's every-caller pass), and with pull its uninformed neighbors'
	sideUninformed             // each uninformed vertex's call (with pull) and its informed neighbors'
	numSides
)

// replayUnits prices a call resolved out of vertex order — idx[x], then
// the neighbor slot it selects: two dependent cache misses — in units of
// the dense sweep, which streams its draws and pays one bit test to
// collect each. Measured on hypercube:16, randreg:65536,16 and
// barabasi:16384,4 while eight trials were fused per bundle: 13-17 ns a
// replay against ~2 ns a sweep unit in the rounds where the choice arises
// (one side nearly empty, so the sweep's branches predict), and whole
// rounds forced to each side cross the sweep's time at this ratio on all
// three (at half of it the last informed-side round costs two sweeps).
const replayUnits = 8

// pickSide returns the side from which a round costs the least, and that
// cost, for a trial with inf informed vertices of total degree degInf on a
// graph of n vertices and twoM endpoints.
//
// Push (pull false) resolves calls whichever way it goes — |I| from the
// informed side, which is its every-caller pass, Σ deg(U) from the
// uninformed side — so it counts calls, and has no sweep.
//
// Push-pull counts sweep units: 2n for the sweep (a draw and a collect
// per vertex); a replay for every informed vertex and every neighbor of
// one from the informed side (while that side is the small one its
// neighbors are all but all uninformed); and from the uninformed side a
// replay for every uninformed vertex's own call plus a look at each of its
// neighbors (while that side is the small one the own call nearly always
// reaches an informed vertex, and the scan behind it is rare).
//
// Ties keep the every-caller pass, so a sparse side is never chosen at the
// cost of the pass it replaces.
func pickSide(pull bool, inf int, degInf int64, n int, twoM int64) (side, int64) {
	unf, degUnf := int64(n-inf), twoM-degInf
	if !pull {
		if degUnf < int64(inf) {
			return sideUninformed, degUnf
		}
		return sideInformed, int64(inf)
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

// callBoundary tracks a call trial's boundary: the vertices whose call can
// transfer the rumor. Those are the informed vertices with an uninformed
// neighbor, and, with pull, the uninformed vertices with an informed
// neighbor. Push keeps no informed-neighbor counts.
type callBoundary struct {
	pull      bool
	active    []graph.Vertex // vertices whose call can transfer
	activeIdx []int32
	remUninf  []int32 // per-vertex count of uninformed neighbors
	infNbrs   []int32 // per-vertex count of informed neighbors; pull only
}

// build constructs the boundary structures from the current informed set:
// one O(n + Σ deg(informed)) pass, paid once on boundary entry.
func (b *callBoundary) build(g *graph.Graph, informed *bitset.Set, pull bool) {
	n := g.N()
	b.pull = pull
	b.active = b.active[:0]
	b.activeIdx = make([]int32, n)
	b.remUninf = make([]int32, n)
	if pull {
		b.infNbrs = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		b.activeIdx[v] = -1
		b.remUninf[v] = int32(g.Degree(graph.Vertex(v)))
	}
	for wi, w := range informed.Words() {
		for ; w != 0; w &= w - 1 {
			nbrs := g.Neighbors(graph.Vertex(wi<<6 + bits.TrailingZeros64(w)))
			for _, x := range nbrs {
				b.remUninf[x]--
			}
			if pull {
				for _, x := range nbrs {
					b.infNbrs[x]++
				}
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

// isBoundary reports whether v's call can transfer the rumor: v is
// informed with an uninformed neighbor, or, with pull, uninformed with an
// informed one.
func (b *callBoundary) isBoundary(informed *bitset.Set, v graph.Vertex) bool {
	if informed.Test(int(v)) {
		return b.remUninf[v] > 0
	}
	return b.pull && b.infNbrs[v] > 0
}

// onInformed updates the active set after v became informed (informed must
// already have v set): v's neighbors each trade an uninformed neighbor for
// an informed one, which retires informed ones that lost their last
// uninformed neighbor and, with pull, activates uninformed ones that just
// gained their first informed one; and v itself joins or leaves.
func (b *callBoundary) onInformed(g *graph.Graph, informed *bitset.Set, v graph.Vertex) {
	rem, pull := b.remUninf, b.pull
	for _, x := range g.Neighbors(v) {
		rem[x]--
		if pull {
			b.infNbrs[x]++
			b.setActive(x, b.isBoundary(informed, x))
		} else if rem[x] == 0 {
			b.setActive(x, false) // without pull only a retirement changes x
		}
	}
	b.setActive(v, rem[v] > 0)
}

func (b *callBoundary) setActive(v graph.Vertex, want bool) {
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
