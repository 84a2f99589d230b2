package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// Hybrid runs push-pull and visit-exchange simultaneously over a shared
// informed-vertex set, realizing the paper's suggestion (Section 1) that
// "agent-based information dissemination, separately or in combination with
// push-pull, can significantly improve the broadcast time". Each round
// first performs a push-pull exchange step, then an agent step with
// visit-exchange semantics; a vertex informed by either mechanism counts.
//
// On every Fig. 1 family the hybrid inherits the faster mechanism:
// logarithmic on the star and double star (agents), and logarithmic on the
// heavy and Siamese trees (push-pull).
//
// Both mechanisms run on the deterministic parallel engine: exchange draws
// come from per-(vertex, round) streams, walk draws from per-(agent,
// round) streams, and all commits happen in serial merges ordered by
// vertex/agent id — bit-identical results for a given seed at any
// GOMAXPROCS.
//
// The exchange phase carries the same boundary-active sender optimization
// as push-pull: after two consecutive rounds in which neither mechanism
// informed a vertex, only vertices with a neighbor in the opposite
// informed state draw exchange choices (see boundary.go). Because
// boundary membership is maintained against the shared informed set, a
// vertex informed by an agent deposit retires exchange senders exactly as
// an exchange-informed one does; results are bit-identical to the dense
// path (pinned by TestHybridBoundaryEquivalence).
type Hybrid struct {
	g     *graph.Graph
	src   graph.Vertex
	walks *agents.BatchedWalks // one lane
	opts  AgentOptions

	seed    uint64 // keys the push-pull exchange streams
	sampler neighborSampler
	callers int64 // non-isolated vertices: one exchange message each per round

	informedV *bitset.Set
	informedA *bitset.Set
	countV    int
	countA    int
	pendingV  []graph.Vertex
	targets   []graph.Vertex
	srcs      []graph.Vertex // per-slot sender (boundary mode)

	// Exchange-phase boundary bookkeeping (see boundary.go), built lazily
	// after repeated rounds that inform no vertex through either mechanism.
	// useBoundary is on by default; the equivalence test clears it to pin
	// the boundary path against the dense path.
	useBoundary bool
	boundary    bool
	stagnant    int
	bnd         exchangeBoundary

	budget     budget
	exchangeFn func(shard, lo, hi int)
	activeFn   func(shard, lo, hi int)
	round      int
	messages   int64
}

var _ Process = (*Hybrid)(nil)

// NewHybrid builds a combined push-pull + visit-exchange process.
func NewHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (*Hybrid, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	w, err := agents.NewBatched(g, opts.walkConfig(g, false), []*xrand.RNG{rng})
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	h := &Hybrid{
		g:         g,
		src:       s,
		walks:     w,
		opts:      opts,
		seed:      rng.Uint64(),
		sampler:   newNeighborSampler(g),
		callers:   callerCount(g),
		informedV: bitset.New(g.N()),
		informedA: bitset.New(w.N()),
		countV:    1,
	}
	h.useBoundary = true
	h.exchangeFn = h.exchangeShard
	h.activeFn = h.exchangeActiveShard
	h.informedV.Set(int(s))
	for i, p := range w.Lane(0) {
		if p == s {
			h.informedA.Set(i)
			h.countA++
		}
	}
	return h, nil
}

// Name implements Process.
func (h *Hybrid) Name() string { return "ppull+visitx" }

// Round implements Process.
func (h *Hybrid) Round() int { return h.round }

// Done implements Process.
func (h *Hybrid) Done() bool { return h.countV == h.g.N() }

// InformedCount implements Process (vertices).
func (h *Hybrid) InformedCount() int { return h.countV }

// AllAgentsInformed implements the agentTracker interface.
func (h *Hybrid) AllAgentsInformed() bool { return h.countA == h.walks.N() }

// Messages implements Process: one neighbor call per non-isolated vertex
// (isolated vertices have nobody to call; their exchange draw is the
// no-call marker -1) plus |A| agent steps per round.
func (h *Hybrid) Messages() int64 { return h.messages }

// Source implements the sourced interface.
func (h *Hybrid) Source() graph.Vertex { return h.src }

// setBudget sizes the walk step (one unit per agent) once; the exchange
// draws are sized per round from their sender count. The agent passes run
// inline.
func (h *Hybrid) setBudget(b budget) {
	h.budget = b
	h.walks.SetShards(b.For(h.walks.N()))
}

// Step implements Process.
func (h *Hybrid) Step() {
	h.round++

	// Phase 1: push-pull exchanges against the pre-round informed set,
	// drawn in parallel from per-vertex streams, merged in vertex order.
	// In boundary mode only vertices with a neighbor in the opposite
	// informed state draw — any other vertex's exchange provably transfers
	// nothing, and skipping its draw shifts nobody else's randomness (see
	// boundary.go).
	h.pendingV = h.pendingV[:0]
	n := h.g.N()
	h.messages += h.callers
	if h.targets == nil {
		h.targets = make([]graph.Vertex, n)
	}
	if h.boundary {
		m := len(h.bnd.active)
		if m > 0 {
			par.DoN(h.budget.For(m), m, h.activeFn)
			// Collect against the pre-round informed state (the active
			// list itself mutates only in the commit below, hence srcs).
			h.pendingV = collectExchangeActive(h.informedV, h.srcs[:m], h.targets[:m], h.pendingV)
		}
	} else {
		par.DoN(h.budget.For(n), n, h.exchangeFn)
		h.pendingV = collectExchangeDense(h.informedV, h.targets[:n], h.pendingV)
	}

	// Phase 2: agent moves with visit-exchange semantics. Agents informed
	// in a previous round inform the vertex they land on this round.
	h.walks.Step(nil)
	na := h.walks.N()
	h.messages += int64(na)
	h.countA = forgetRespawned(h.informedA, h.countA, h.walks.Respawned(0))
	if h.opts.Observer != nil {
		observeMoves(h.opts.Observer, h.walks)
	}
	pos := h.walks.Lane(0)
	if h.countA > 0 && h.countV < n {
		h.pendingV = collectDeposits(h.informedA, h.informedV, pos, h.pendingV)
	}

	// Commit newly informed vertices from both mechanisms.
	countBefore := h.countV
	h.countV = commitExchange(h.g, h.informedV, &h.bnd, h.boundary, h.pendingV, h.countV, nil)
	if h.useBoundary && !h.boundary {
		if h.countV != countBefore {
			h.stagnant = 0
		} else if !h.Done() {
			// A round in which neither the exchange nor the agents informed
			// a vertex signals a waiting phase; require two in a row before
			// paying the O(M) boundary build (see boundary.go).
			if h.stagnant++; h.stagnant >= boundaryStagnantRounds {
				h.bnd.build(h.g, h.informedV)
				if h.srcs == nil {
					h.srcs = make([]graph.Vertex, n)
				}
				h.boundary = true
			}
		}
	}

	// Agents standing on an informed vertex (old or new) become informed.
	if h.countA < na {
		h.countA = pickupAgents(h.informedA, h.countA, h.informedV, pos)
	}
}

// exchangeShard draws the round's push-pull neighbor choice for vertices
// [lo, hi) into the targets scratch, with the incremental stream base and
// inlined sampling of the walk inner loop.
func (h *Hybrid) exchangeShard(_, lo, hi int) {
	round := uint64(h.round)
	idx, nbrs := h.sampler.idx, h.sampler.nbrs
	if idx == nil {
		for u := lo; u < hi; u++ {
			s := xrand.NewStream(h.seed, uint64(u), round)
			h.targets[u] = h.sampler.sample(graph.Vertex(u), &s)
		}
		return
	}
	targets := h.targets[:hi]
	base := xrand.MixBase(h.seed, uint64(lo), round)
	for u := lo; u < hi; u++ {
		word := idx[u]
		if graph.WalkDegreeOne(word) {
			targets[u] = graph.WalkOnlyNeighbor(word, nbrs)
		} else if graph.WalkDegreeZero(word) {
			targets[u] = -1 // isolated vertex: no call
		} else {
			targets[u] = graph.WalkTarget(word, xrand.Mix(base), nbrs)
		}
		base += xrand.UnitStride
	}
}

// exchangeActiveShard draws the round's push-pull neighbor choice for
// active-list slots [lo, hi), recording the sender alongside because the
// active list mutates during the commit phase.
func (h *Hybrid) exchangeActiveShard(_, lo, hi int) {
	drawExchangeActive(&h.sampler, h.seed, h.bnd.active[lo:hi], h.srcs[lo:hi], h.targets[lo:hi], uint64(h.round), 0)
}
