package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// NewHybrid builds one trial of the combined push-pull + visit-exchange
// protocol: the one-lane view of NewBatchedHybrid, the hybrid's only
// implementation.
func NewHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	h, err := NewBatchedHybrid(g, s, []*xrand.RNG{rng}, opts)
	if err != nil {
		return nil, err
	}
	return newLaneView(h), nil
}

// hybridLane is one trial's hybrid (push-pull + visit-exchange) state:
// the call lane over the vertices (pull on), plus the informed agents.
type hybridLane struct {
	callLane
	informedA *bitset.Set
	countA    int
}

// BatchedHybrid runs push-pull and visit-exchange simultaneously over a
// shared informed-vertex set, for K trials in fused lockstep. It realizes
// the paper's suggestion (Section 1) that "agent-based information
// dissemination, separately or in combination with push-pull, can
// significantly improve the broadcast time". Each round first performs a
// push-pull exchange step, then an agent step with visit-exchange
// semantics; a vertex informed by either mechanism counts. On every Fig. 1
// family the hybrid inherits the faster mechanism: logarithmic on the star
// and double star (agents), and logarithmic on the heavy and Siamese trees
// (push-pull). Messages count one call per non-isolated vertex plus |A|
// agent steps per round.
//
// The agent phase is one fused BatchedWalks round for all lanes, and the
// informing passes (exchange collect, agent deposit, commit, agent pickup)
// then run lane by lane, like BatchedAgentExchange's. The agent half
// is visit-exchange's round, through the same collectDeposits and
// pickupAgents, so its deposits scan positions once every agent is
// informed. Each lane's exchange phase is a push-pull lane's (every
// vertex's call resolved and collected in one pass, or the smaller side of
// the cut, then boundary mode; see callLane and boundary.go), maintained
// against the lane's shared informed set, so agent deposits move the cut
// and retire exchange senders exactly as exchange finds do. With churn,
// respawned agents forget the rumor before the informing passes. A
// one-lane bundle may carry an Observer, called with every agent traversal
// after the walk step; the exchange calls are not reported.
type BatchedHybrid struct {
	g       *graph.Graph
	src     graph.Vertex
	walks   *agents.BatchedWalks
	seeds   []uint64 // per-lane exchange stream seeds, drawn after the walk seeds
	sampler neighborSampler
	callers int64
	lanes   []hybridLane
	observe MoveObserver // one-lane bundles only

	forceSide side // tests only: see BatchedCall.forceSide

	round int
}

var _ LaneProcess = (*BatchedHybrid)(nil)

// NewBatchedHybrid builds a K = len(rngs) lane hybrid bundle. Lane t
// consumes rngs[t] alone — the walk-system seed, then the exchange stream
// seed — so lane t of any bundle replays the one-lane trial on the same
// RNG bit for bit, churn included. An Observer needs K = 1.
func NewBatchedHybrid(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedHybrid, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.Observer != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	w, err := agents.NewBatched(g, opts.walkConfig(g, false), rngs)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	h := &BatchedHybrid{
		g:       g,
		src:     s,
		walks:   w,
		seeds:   make([]uint64, len(rngs)),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]hybridLane, len(rngs)),
		observe: opts.Observer,
	}
	for t, rng := range rngs {
		// NewBatched drew lane t's walk seed from rngs[t]; the exchange
		// seed is the next value.
		h.seeds[t] = rng.Uint64()
		L := &h.lanes[t]
		L.init(g, s, true)
		L.informedA = bitset.New(w.N())
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
func (h *BatchedHybrid) LaneDone(t int) bool { return h.lanes[t].count == h.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (h *BatchedHybrid) LaneInformedCount(t int) int { return h.lanes[t].count }

// LaneMessages implements LaneProcess.
func (h *BatchedHybrid) LaneMessages(t int) int64 { return h.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess.
func (h *BatchedHybrid) LaneAllAgentsInformed(t int) bool {
	return h.lanes[t].countA == h.walks.N()
}

// Round returns the number of rounds the bundle has stepped.
func (h *BatchedHybrid) Round() int { return h.round }

// Step implements LaneProcess: one fused walk round, then the per-lane
// informing passes. Exchange calls are counter-based pure functions of
// (seed, vertex, round), so resolving them after the walk step is the same
// as resolving them before it.
func (h *BatchedHybrid) Step(active []bool) {
	h.round++
	h.walks.Step(active)
	if h.observe != nil {
		observeMoves(h.observe, h.walks)
	}
	for t := range h.lanes {
		if active == nil || active[t] {
			h.stepLane(t)
		}
	}
}

// stepLane applies one hybrid round to lane t: the exchange's side, its
// collect against the pre-round informed set, agent deposit, commit of
// both mechanisms' finds, then agent pickup.
func (h *BatchedHybrid) stepLane(t int) {
	L := &h.lanes[t]
	n := h.g.N()
	na := h.walks.N()
	L.plan(h.g, h.forceSide)
	L.messages += h.callers + int64(na)
	L.collect(h.g, &h.sampler, h.seeds[t], uint64(h.round), 0)

	// Deposit: agents informed in a previous round — churn replacements
	// forget the rumor first — inform the vertex they landed on, collected
	// in agent-id order against the pre-commit informed set.
	L.countA = forgetRespawned(L.informedA, L.countA, h.walks.Respawned(t))
	pos := h.walks.Lane(t)
	if L.countA > 0 && L.count < n {
		L.pending = collectDeposits(L.informedA, L.countA, L.informed, pos, L.pending)
	}

	// Commit newly informed vertices from both mechanisms.
	L.commit(h.g)

	// Pickup: agents standing on an informed vertex (old or new) become
	// informed.
	if L.countA < na {
		L.countA = pickupAgents(L.informedA, L.countA, L.informed, pos)
	}
}
