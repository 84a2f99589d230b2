package core

import (
	"fmt"
	"math/bits"

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
	walks *agents.Walks
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

	shardV     shardBufs[graph.Vertex]
	shardA     shardBufs[int32]
	bufsV      [][]graph.Vertex
	bufsA      [][]int32
	budget     budget
	shardsA    int // shards of an agent pass (deposit, pickup)
	exchangeFn func(shard, lo, hi int)
	activeFn   func(shard, lo, hi int)
	depositFn  func(shard, lo, hi int)
	pickupFn   func(shard, lo, hi int)
	round      int
	messages   int64
}

var _ Process = (*Hybrid)(nil)

// NewHybrid builds a combined push-pull + visit-exchange process.
func NewHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (*Hybrid, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	w, err := agents.New(g, opts.walkConfig(g, false), rng)
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
	h.shardsA = 1
	h.useBoundary = true
	h.exchangeFn = h.exchangeShard
	h.activeFn = h.exchangeActiveShard
	h.depositFn = h.depositShard
	h.pickupFn = h.pickupShard
	h.informedV.Set(int(s))
	for i := 0; i < w.N(); i++ {
		if w.Pos(i) == s {
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

// setBudget sizes the walk step and the agent passes (one unit per agent)
// once; the exchange draws are sized per round from their sender count.
func (h *Hybrid) setBudget(b budget) {
	h.budget = b
	h.shardsA = b.For(h.walks.N())
	h.walks.SetShards(h.shardsA)
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
	for _, id := range h.walks.Respawned() {
		if h.informedA.Test(id) {
			h.informedA.Clear(id)
			h.countA--
		}
	}
	if h.opts.Observer != nil {
		for i := 0; i < na; i++ {
			h.opts.Observer(h.round, h.walks.Prev(i), h.walks.Pos(i))
		}
	}
	words := len(h.informedA.Words())
	if h.countA > 0 && h.countV < n {
		h.bufsV = h.shardV.acquire(h.shardsA)
		par.DoN(h.shardsA, words, h.depositFn)
		for _, buf := range h.bufsV {
			h.pendingV = append(h.pendingV, buf...)
		}
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
		h.bufsA = h.shardA.acquire(h.shardsA)
		par.DoN(h.shardsA, words, h.pickupFn)
		for _, buf := range h.bufsA {
			for _, i := range buf {
				h.informedA.Set(int(i))
				h.countA++
			}
		}
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

// depositShard collects the positions of previously informed agents in
// bitset words [lo, hi) whose vertex is not yet informed.
func (h *Hybrid) depositShard(shard, lo, hi int) {
	aw := h.informedA.Words()
	pos := h.walks.Positions()
	buf := h.bufsV[shard]
	for wi := lo; wi < hi; wi++ {
		for wd := aw[wi]; wd != 0; wd &= wd - 1 {
			i := wi<<6 + bits.TrailingZeros64(wd)
			p := pos[i]
			if !h.informedV.Test(int(p)) {
				buf = append(buf, p)
			}
		}
	}
	h.bufsV[shard] = buf
}

// pickupShard collects the uninformed agents in bitset words [lo, hi)
// standing on an informed vertex.
func (h *Hybrid) pickupShard(shard, lo, hi int) {
	h.bufsA[shard] = collectPickups(h.informedA, h.informedV, h.walks.Positions(), lo, hi, h.bufsA[shard])
}
