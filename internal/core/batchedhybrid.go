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

// hybridLane is one trial's hybrid (push-pull + visit-exchange) state.
type hybridLane struct {
	informedV *bitset.Set
	informedA *bitset.Set
	countV    int
	countA    int
	boundary  bool
	stagnant  int
	bnd       exchangeBoundary
	srcs      []graph.Vertex
	targets   []graph.Vertex
	pendingV  []graph.Vertex
	messages  int64
}

// BatchedHybrid runs K hybrid trials in fused lockstep: the exchange
// phase's dense draw is the cross-lane blocked sweep shared with
// BatchedPushPull (drawExchangeLanes), the agent phase is one fused
// BatchedWalks round for all lanes, and the informing passes (exchange
// collect, agent deposit, commit, agent pickup) are sharded across lanes
// like BatchedVisitExchange.laneShard — each lane writes only its own
// state, so the shard split is deterministic. Each lane carries the
// exchange-phase boundary optimization of the serial Hybrid (see
// boundary.go), maintained against the lane's shared informed set so
// agent deposits retire exchange senders exactly as exchange finds do.
type BatchedHybrid struct {
	g       *graph.Graph
	src     graph.Vertex
	walks   *agents.BatchedWalks
	opts    AgentOptions
	seeds   []uint64 // per-lane exchange stream seeds, drawn like Hybrid.seed
	sampler neighborSampler
	callers int64
	lanes   []hybridLane

	activeIDs    []int
	denseIDs     []int
	denseTargets [][]graph.Vertex // parallel to denseIDs
	budget       budget
	denseFn      func(shard, lo, hi int)
	laneFn       func(shard, lo, hi int)
	round        int
}

var _ LaneProcess = (*BatchedHybrid)(nil)

// NewBatchedHybrid builds a K = len(rngs) lane hybrid bundle. Lane t
// consumes rngs[t] exactly as NewHybrid would — the walk-system seed, then
// the exchange stream seed — so lane t replays serial trial t bit for bit.
// Options requiring the serial path (churn, observers) are rejected;
// callers fall back to serial processes on the K = 1 lane path.
func NewBatchedHybrid(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedHybrid, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		return nil, fmt.Errorf("hybrid: batched runs do not support observers")
	}
	w, err := agents.NewBatched(g, opts.walkConfig(g, false), rngs)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	h := &BatchedHybrid{
		g:       g,
		src:     s,
		walks:   w,
		opts:    opts,
		seeds:   make([]uint64, len(rngs)),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]hybridLane, len(rngs)),
	}
	h.denseFn = h.drawDenseShard
	h.laneFn = h.laneShard
	for t, rng := range rngs {
		// NewBatched drew lane t's walk seed from rngs[t]; the exchange
		// seed is the next value, exactly as NewHybrid consumes them.
		h.seeds[t] = rng.Uint64()
		L := &h.lanes[t]
		L.informedV = bitset.New(g.N())
		L.informedA = bitset.New(w.N())
		L.countV = 1
		L.informedV.Set(int(s))
		for i, p := range w.Lane(t) {
			if p == s {
				L.informedA.Set(i)
				L.countA++
			}
		}
	}
	return h, nil
}

// Name implements LaneProcess.
func (h *BatchedHybrid) Name() string { return "ppull+visitx" }

// K implements LaneProcess.
func (h *BatchedHybrid) K() int { return len(h.lanes) }

// Source implements LaneProcess.
func (h *BatchedHybrid) Source() graph.Vertex { return h.src }

// LaneDone implements LaneProcess.
func (h *BatchedHybrid) LaneDone(t int) bool { return h.lanes[t].countV == h.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (h *BatchedHybrid) LaneInformedCount(t int) int { return h.lanes[t].countV }

// LaneMessages implements LaneProcess.
func (h *BatchedHybrid) LaneMessages(t int) int64 { return h.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess.
func (h *BatchedHybrid) LaneAllAgentsInformed(t int) bool {
	return h.lanes[t].countA == h.walks.N()
}

func (h *BatchedHybrid) setBudget(b budget) { h.budget = b }

// Step implements LaneProcess: the fused dense exchange draw for
// non-boundary lanes, one fused walk round, then the per-lane informing
// passes. Exchange draws are counter-based pure functions of
// (seed, vertex, round), so drawing before the walk step and collecting
// after it consumes exactly the serial Hybrid's randomness.
func (h *BatchedHybrid) Step(active []bool) {
	h.round++
	h.activeIDs = activeLanes(h.activeIDs[:0], active, len(h.lanes))
	h.denseIDs = h.denseIDs[:0]
	h.denseTargets = h.denseTargets[:0]
	n := h.g.N()
	agentWork := len(h.activeIDs) * h.walks.N()
	work := agentWork // plus the senders the lane passes draw for or collect from
	for _, t := range h.activeIDs {
		L := &h.lanes[t]
		if L.boundary {
			work += len(L.bnd.active)
			continue
		}
		work += n
		if L.targets == nil {
			L.targets = make([]graph.Vertex, n)
		}
		h.denseIDs = append(h.denseIDs, t)
		h.denseTargets = append(h.denseTargets, L.targets)
	}
	if len(h.denseIDs) > 0 {
		par.DoN(h.budget.For(len(h.denseIDs)*n), n, h.denseFn)
	}
	h.walks.SetShards(h.budget.For(agentWork))
	h.walks.Step(active)
	par.DoN(h.budget.For(work), len(h.activeIDs), h.laneFn)
}

// drawDenseShard draws vertices [lo, hi) for every dense lane through the
// shared cross-lane blocked sweep.
func (h *BatchedHybrid) drawDenseShard(_, lo, hi int) {
	drawExchangeLanes(h.sampler, h.seeds, h.denseIDs, h.denseTargets, lo, hi, uint64(h.round), 0)
}

// laneShard runs the informing passes for active lanes [lo, hi).
func (h *BatchedHybrid) laneShard(_, lo, hi int) {
	for _, t := range h.activeIDs[lo:hi] {
		h.stepLane(t)
	}
}

// stepLane applies one hybrid round to lane t, mirroring the serial
// Hybrid.Step pass structure: exchange collect against the pre-round
// informed set, agent deposit, commit of both mechanisms' finds, then
// agent pickup.
func (h *BatchedHybrid) stepLane(t int) {
	L := &h.lanes[t]
	n := h.g.N()
	na := h.walks.N()
	L.messages += h.callers + int64(na)
	L.pendingV = L.pendingV[:0]

	// Exchange collect. Boundary lanes draw their small active list here
	// (the dense sweep skipped them); either way informedness is evaluated
	// against the pre-round state.
	if L.boundary {
		m := len(L.bnd.active)
		if m > 0 {
			h.drawActiveLane(t)
			L.pendingV = collectExchangeActive(L.informedV, L.srcs[:m], L.targets[:m], L.pendingV)
		}
	} else {
		L.pendingV = collectExchangeDenseWords(L.informedV, L.targets[:n], L.pendingV)
	}

	// Deposit: agents informed in a previous round inform the vertex they
	// landed on, collected in agent-id order against the pre-commit
	// informed set, exactly like the serial depositShard.
	pos := h.walks.Lane(t)
	if L.countA > 0 && L.countV < n {
		for wi, wd := range L.informedA.Words() {
			for ; wd != 0; wd &= wd - 1 {
				p := pos[wi<<6+bits.TrailingZeros64(wd)]
				if !L.informedV.Test(int(p)) {
					L.pendingV = append(L.pendingV, p)
				}
			}
		}
	}

	// Commit newly informed vertices from both mechanisms.
	countBefore := L.countV
	L.countV = commitExchange(h.g, L.informedV, &L.bnd, L.boundary, L.pendingV, L.countV)
	if !L.boundary {
		if L.countV != countBefore {
			L.stagnant = 0
		} else if L.countV != n {
			if L.stagnant++; L.stagnant >= boundaryStagnantRounds {
				L.bnd.build(h.g, L.informedV)
				if L.srcs == nil {
					L.srcs = make([]graph.Vertex, n)
				}
				L.boundary = true
			}
		}
	}

	// Pickup: agents standing on an informed vertex (old or new) become
	// informed.
	if L.countA < na {
		L.countA = pickupAgents(L.informedA, L.countA, L.informedV, pos)
	}
}

// drawActiveLane draws lane t's active-list exchange slots, recording the
// sender alongside, with the serial exchangeActiveShard draw discipline.
func (h *BatchedHybrid) drawActiveLane(t int) {
	L := &h.lanes[t]
	m := len(L.bnd.active)
	drawExchangeActive(h.sampler, h.seeds[t], L.bnd.active, L.srcs[:m], L.targets[:m], uint64(h.round), 0)
}
