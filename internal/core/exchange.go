package core

import (
	"math/bits"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The neighbor sampler, the call state and the collect helpers shared by
// the call processes: Call's push and push-pull and the vertex half
// of Hybrid's. Each is a plain function or method over concrete
// state (no per-unit indirection lands in a hot loop), so every engine
// that performs a call round shares one copy of the collect and commit
// semantics — a fix lands in all of them at once. Push is the call state
// with the pull direction off. The agent passes live here too:
// markDeposits is visit- and meet-exchange's deposit, collectDeposits the
// hybrid's, and pickupAgents every agent protocol's pickup, one copy for
// all three.

// NOTE: among the bitset-word scans over agents, only pickupAgents walks
// the uninformed agents, so it alone carries the ghost-bit mask
// `inv &= 1<<rem - 1` for the final partial word; the deposit scans walk
// set bits, which have no ghosts. The vertex-side scans keep their own
// copy of the mask in uninformedWord.

// neighborSampler resolves uniform neighbor draws against the graph's
// packed walk index when available (single load + AND or multiply-shift),
// falling back to the CSR slices — with identical draw consumption — for
// graphs too large to pack.
type neighborSampler struct {
	g    *graph.Graph
	idx  []uint64
	nbrs []graph.Vertex
}

func newNeighborSampler(g *graph.Graph) neighborSampler {
	return neighborSampler{g: g, idx: g.WalkIndex(), nbrs: g.NeighborsRaw()}
}

// sample returns a uniform neighbor of u, consuming exactly one draw from
// s — except for degree-1 vertices (no draw) and isolated vertices, which
// return -1 (no call can be made).
func (ns *neighborSampler) sample(u graph.Vertex, s *xrand.Stream) graph.Vertex {
	if ns.idx != nil {
		word := ns.idx[u]
		if graph.WalkDegreeOne(word) {
			return graph.WalkOnlyNeighbor(word, ns.nbrs)
		}
		if graph.WalkDegreeZero(word) {
			return -1
		}
		return graph.WalkTarget(word, s.Uint64(), ns.nbrs)
	}
	nb := ns.g.Neighbors(u)
	if len(nb) == 1 {
		return nb[0]
	}
	if len(nb) == 0 {
		return -1
	}
	return nb[xrand.ReduceDeg(s.Uint64(), len(nb))]
}

// call is the one definition of "vertex u's call in round `round` under
// (seed, failTh)": the neighbor u's (seed, u, round) stream picks — the
// only neighbor of a degree-1 vertex, without a draw — or -1 when u is
// isolated or the stream's next draw, the failure coin, falls under failTh.
// It is a pure function of its arguments, so u's neighbor may evaluate it
// as well as u: every path of the call protocols — forward, from the
// other side of the cut, boundary — resolves calls here (see boundary.go).
func (ns *neighborSampler) call(seed uint64, u graph.Vertex, round, failTh uint64) graph.Vertex {
	if ns.idx != nil && failTh == 0 {
		// Reliable links on the packed index: at most one draw.
		word := ns.idx[u]
		if graph.WalkDegreeOne(word) {
			return graph.WalkOnlyNeighbor(word, ns.nbrs)
		}
		if graph.WalkDegreeZero(word) {
			return -1
		}
		return graph.WalkTarget(word, xrand.Mix3(seed, uint64(u), round), ns.nbrs)
	}
	s := xrand.NewStream(seed, uint64(u), round)
	v := ns.sample(u, &s)
	if failTh != 0 && s.Uint64() < failTh {
		v = -1
	}
	return v
}

// callState is one trial's call-protocol state: all of a push or push-pull
// trial's, the vertex half of a hybrid trial's.
type callState struct {
	informed *bitset.Set
	pull     bool // every vertex calls and a call carries both ways; push when false
	count    int
	degInf   int64         // Σ deg over informed (see pickSide)
	side     side          // this round's side; meaningless in boundary mode
	took     [numSides]int // rounds evaluated from each side
	boundary bool
	stagnant int
	bnd      callBoundary
	pending  []graph.Vertex
	messages int64
}

func (L *callState) init(g *graph.Graph, s graph.Vertex, pull bool) {
	L.informed = bitset.New(g.N())
	L.pull = pull
	L.informed.Set(int(s))
	L.count = 1
	L.degInf = int64(g.Degree(s))
}

// plan settles where the coming round is evaluated from: pickSide's
// choice, or force when set. A trial in boundary mode has nothing to
// settle: its active list is the round.
func (L *callState) plan(g *graph.Graph, force side) {
	if L.boundary {
		return
	}
	s, _ := pickSide(L.pull, L.count, L.degInf, g.N(), int64(g.EndpointCount()))
	if force != sideRule {
		s = force
	}
	L.side = s
	L.took[s]++
}

// collect gathers into pending the planned round's transfers, evaluated
// against the pre-round informed set. Boundary mode resolves the calls of
// its small active list here (it mutates in commit, after this pass), a
// sparse side the calls across the cut, the dense sweep every vertex's
// call in one pass.
func (L *callState) collect(g *graph.Graph, sampler *neighborSampler, seed, round, failTh uint64) {
	L.pending = L.pending[:0]
	switch {
	case L.boundary:
		for _, u := range L.bnd.active {
			v := sampler.call(seed, u, round, failTh)
			if v < 0 {
				continue
			}
			switch iu, iv := L.informed.Test(int(u)), L.informed.Test(int(v)); {
			case iu && !iv:
				L.pending = append(L.pending, v)
			case !iu && iv:
				L.pending = append(L.pending, u)
			}
		}
	case L.side == sideInformed:
		L.pending = collectFromInformed(g, sampler, L.informed, seed, round, failTh, L.pull, L.pending)
	case L.side == sideUninformed:
		L.pending = collectFromUninformed(g, sampler, L.informed, seed, round, failTh, L.pull, L.pending)
	default:
		L.pending = collectExchangeDense(sampler, L.informed, seed, round, failTh, L.pending)
	}
}

// commit informs the pending vertices (duplicates commit once), keeping
// Σ deg(I) for the side rule and, in boundary mode, the active list; after
// boundaryStagnantRounds consecutive rounds that informed nobody, it
// enters boundary mode.
func (L *callState) commit(g *graph.Graph) {
	before := L.count
	for _, v := range L.pending {
		if !L.informed.Test(int(v)) {
			L.informed.Set(int(v))
			L.count++
			L.degInf += int64(g.Degree(v))
			if L.boundary {
				L.bnd.onInformed(g, L.informed, v)
			}
		}
	}
	if L.boundary {
		return
	}
	if L.count != before {
		L.stagnant = 0
	} else if L.count != g.N() {
		if L.stagnant++; L.stagnant >= boundaryStagnantRounds {
			L.bnd.build(g, L.informed, L.pull)
			L.boundary = true
		}
	}
}

// collectExchangeDense appends to pending the transfers of a round
// evaluated from every vertex: each vertex u calls whom
// neighborSampler.call has it call, and if exactly one endpoint of the call
// was informed before the round, the other becomes pending. On reliable
// links over the packed index each call is resolved inline in vertex
// order, one informed word at a time, and each transfer is kept without a
// branch (keepTransfer): whether a call crosses the cut is a coin flip for
// much of a run, and a mispredicted test would stall behind the call's
// random neighbor load. Isolated vertices are skipped before the draw, as
// call skips them: WalkTargetAny on one reads the next vertex's first
// neighbor, or past nbrs for the last vertex. Degree-1 vertices take their
// only neighbor without a draw, which on the star is nearly every vertex.
// Lossy links and unpacked graphs go through call per
// vertex. TestLaneExchangeDenseIsCall pins both arms to the per-call rule.
func collectExchangeDense(sampler *neighborSampler, informed *bitset.Set, seed, round, failTh uint64, pending []graph.Vertex) []graph.Vertex {
	words := informed.Words()
	if sampler.idx == nil || failTh != 0 {
		for u := range graph.Vertex(informed.Len()) {
			if v := sampler.call(seed, u, round, failTh); v >= 0 {
				pending = keepTransfer(pending, u, v, wordBit(words, u), wordBit(words, v))
			}
		}
		return pending
	}
	idx, nbrs := sampler.idx, sampler.nbrs
	base := xrand.MixBase(seed, 0, round) // vertex u's draw is Mix(base + u·UnitStride)
	for wi, w := range words {
		for u := wi << 6; u < min(wi<<6+64, len(idx)); u++ {
			word := idx[u]
			var v graph.Vertex
			switch {
			case graph.WalkDegreeOne(word):
				v = graph.WalkOnlyNeighbor(word, nbrs)
			case graph.WalkDegreeZero(word):
				continue
			default:
				v = graph.WalkTargetAny(word, xrand.Mix(base+uint64(u)*xrand.UnitStride), nbrs)
			}
			pending = keepTransfer(pending, graph.Vertex(u), v, w>>(uint(u)&63)&1, wordBit(words, v))
		}
	}
	return pending
}

// keepTransfer appends the transfer of u's call to v, given the endpoints'
// informed bits iu and iv (each 0 or 1): v when only u is informed, u when
// only v is. The candidate is always written and then kept iff iu != iv,
// so the outcome costs no branch.
func keepTransfer(pending []graph.Vertex, u, v graph.Vertex, iu, iv uint64) []graph.Vertex {
	pending = append(pending, u^(u^v)&-graph.Vertex(iu))
	return pending[:len(pending)-1+int(iu^iv)]
}

// wordBit returns bit v of the bitset words as 0 or 1.
func wordBit(words []uint64, v graph.Vertex) uint64 { return words[v>>6] >> (uint(v) & 63) & 1 }

// uninformedWord returns word wi of the complement of informed: the
// uninformed vertices among [64wi, 64wi+64), ghost bits past Len() clear.
func uninformedWord(informed *bitset.Set, wi int) uint64 {
	inv := ^informed.Words()[wi]
	if rem := informed.Len() - wi<<6; rem < 64 {
		inv &= 1<<uint(rem) - 1
	}
	return inv
}

// collectFromInformed appends to pending the transfers of a round
// evaluated from the informed side of the cut: each informed u pushes to
// the vertex it calls, and, with pull, each uninformed neighbor x of u —
// whose call is replayed here, by the vertex it may have reached — pulls
// from u if it called u. |I| units, plus Σ deg(I) with pull. Without pull
// it is push's every-caller pass; with it, the same set (with repeats,
// which commit once) as collectExchangeDense. Evaluated against the
// pre-commit informed set.
func collectFromInformed(g *graph.Graph, sampler *neighborSampler, informed *bitset.Set, seed, round, failTh uint64, pull bool, pending []graph.Vertex) []graph.Vertex {
	words := informed.Words()
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			u := graph.Vertex(wi<<6 + bits.TrailingZeros64(w))
			if v := sampler.call(seed, u, round, failTh); v >= 0 {
				// Kept iff v is uninformed, without a branch: whether a
				// call lands on an informed vertex is a coin flip for
				// much of a run, and a mispredicted test here would stall
				// behind each call's dependent loads.
				pending = append(pending, v)
				pending = pending[:len(pending)-1+int(^words[v>>6]>>(uint(v)&63)&1)]
			}
			if !pull {
				continue
			}
			for _, x := range g.Neighbors(u) {
				if !informed.Test(int(x)) && sampler.call(seed, x, round, failTh) == u {
					pending = append(pending, x)
				}
			}
		}
	}
	return pending
}

// collectFromUninformed appends to pending the vertices a round informs,
// evaluated from the uninformed side of the cut: an uninformed v becomes
// informed iff it pulls from an informed vertex (its own call, with pull)
// or the replayed call of one of its informed neighbors lands on it.
// Σ deg(U) units, plus |U| with pull; each vertex is appended at most
// once, evaluated against the pre-commit informed set. With pull it is
// collectExchangeDense's set, without it the set of uninformed vertices
// push's informed callers reach.
func collectFromUninformed(g *graph.Graph, sampler *neighborSampler, informed *bitset.Set, seed, round, failTh uint64, pull bool, pending []graph.Vertex) []graph.Vertex {
	for wi := range informed.Words() {
		for inv := uninformedWord(informed, wi); inv != 0; inv &= inv - 1 {
			v := graph.Vertex(wi<<6 + bits.TrailingZeros64(inv))
			if pull {
				if u := sampler.call(seed, v, round, failTh); u >= 0 && informed.Test(int(u)) {
					pending = append(pending, v)
					continue
				}
			}
			for _, u := range g.Neighbors(v) {
				if informed.Test(int(u)) && sampler.call(seed, u, round, failTh) == v {
					pending = append(pending, v)
					break
				}
			}
		}
	}
	return pending
}

// markDeposits marks in the vertex-set words vw the vertex of every
// informed agent — one OR per agent, no collect and no commit — and
// returns how many bits it newly set: the visit-exchange deposit, and
// meet-exchange's rebuild of its transient set. countA is the number of
// informed agents. When it is every agent — the Ω(n) broadcast tails of
// the star-like families — the pass scans the positions directly instead
// of bit-iterating the agent set.
func markDeposits(informedA *bitset.Set, countA int, vw []uint64, pos []graph.Vertex) int {
	added := 0
	if countA == len(pos) {
		for _, p := range pos {
			w, b := uint32(p)>>6, uint32(p)&63
			old := vw[w]
			added += int(^old >> b & 1)
			vw[w] = old | 1<<b
		}
		return added
	}
	for wi, wd := range informedA.Words() {
		for ; wd != 0; wd &= wd - 1 {
			p := uint32(pos[wi<<6+bits.TrailingZeros64(wd)])
			old := vw[p>>6]
			added += int(^old >> (p & 63) & 1)
			vw[p>>6] = old | 1<<(p&63)
		}
	}
	return added
}

// collectDeposits appends to pending, in agent-id order, the vertex of
// every informed agent that is not yet informed: the hybrid's agent-half
// deposit, collected rather than marked because its commit also keeps
// Σ deg(I) and the boundary lists (callState.commit). It is evaluated
// against the pre-commit informed set (duplicates commit once). countA is
// the number of informed agents. When it is every agent the pass scans
// the positions directly instead of bit-iterating the agent set, with a
// plain branch: late in a run nearly every vertex is informed, so the
// branch is well predicted, where a branch-free append would make each
// append wait on the previous informed-bit load. The informed case
// continues, so it is the straight-line path of the loop.
func collectDeposits(informedA *bitset.Set, countA int, informedV *bitset.Set, pos []graph.Vertex, pending []graph.Vertex) []graph.Vertex {
	if countA == len(pos) {
		words := informedV.Words()
		for _, p := range pos {
			if words[uint32(p)>>6]>>(uint32(p)&63)&1 != 0 {
				continue
			}
			pending = append(pending, p)
		}
		return pending
	}
	for wi, wd := range informedA.Words() {
		for ; wd != 0; wd &= wd - 1 {
			if p := pos[wi<<6+bits.TrailingZeros64(wd)]; !informedV.Test(int(p)) {
				pending = append(pending, p)
			}
		}
	}
	return pending
}

// pickupAgents informs every uninformed agent standing on an informed
// vertex, committing inline in agent-id order (the predicate reads only
// informedV and pos, so inline commits equal a collect-then-commit), and
// returns the updated informed-agent count.
func pickupAgents(informedA *bitset.Set, countA int, informedV *bitset.Set, pos []graph.Vertex) int {
	na := len(pos)
	aw := informedA.Words()
	for wi := range aw {
		inv := ^aw[wi]
		if rem := na - wi<<6; rem < 64 {
			inv &= 1<<uint(rem) - 1 // mask ghost bits past the last agent
		}
		for ; inv != 0; inv &= inv - 1 {
			i := wi<<6 + bits.TrailingZeros64(inv)
			if informedV.Test(int(pos[i])) {
				informedA.Set(i)
				countA++
			}
		}
	}
	return countA
}
