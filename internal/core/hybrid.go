package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// NewHybrid builds one trial of the combined push-pull + visit-exchange
// protocol. It consumes rng alone — the walk-system seed, then the
// exchange stream seed.
func NewHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	w, err := agents.New(g, opts.walkConfig(g, false), rng)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	h := &Hybrid{
		g:       g,
		src:     s,
		walks:   w,
		seed:    rng.Uint64(), // the next value after the walk seed
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		observe: opts.Observer,
	}
	h.init(g, s, true)
	h.informedA, h.countA = informedOn(w.Positions(), s)
	return h, nil
}

// Hybrid runs push-pull and visit-exchange simultaneously over a
// shared informed-vertex set, for one trial. It realizes the paper's
// suggestion (Section 1) that "agent-based information dissemination,
// separately or in combination with push-pull, can significantly improve
// the broadcast time". Each round first performs a push-pull exchange
// step, then an agent step with visit-exchange semantics; a vertex
// informed by either mechanism counts. On every Fig. 1 family the hybrid
// inherits the faster mechanism: logarithmic on the star and double star
// (agents), and logarithmic on the heavy and Siamese trees (push-pull).
// Messages count one call per non-isolated vertex plus |A| agent steps
// per round.
//
// The agent half is visit-exchange's round, its deposits collected
// (collectDeposits) rather than marked, so that one commit keeps both
// mechanisms' finds, Σ deg(I) and the boundary lists; it scans positions
// once every agent is informed. The exchange phase is a push-pull trial's
// (every vertex's call resolved and collected in one pass, or the smaller
// side of the cut, then boundary mode; see callState and boundary.go),
// maintained against the shared informed set, so agent deposits move the
// cut and retire exchange senders exactly as exchange finds do. With
// churn, respawned agents forget the rumor before the informing passes.
// An Observer is called with every agent traversal after the walk step;
// the exchange calls are not reported.
type Hybrid struct {
	callState // the vertex half, pull on
	g         *graph.Graph
	src       graph.Vertex
	walks     *agents.Walks
	seed      uint64 // the exchange stream seed, drawn after the walk seed
	sampler   neighborSampler
	callers   int64
	informedA *bitset.Set
	countA    int
	observe   MoveObserver

	forceSide side // tests only: see Call.forceSide

	round int
}

// Name implements Process.
func (h *Hybrid) Name() string { return "ppull+visitx" }

// Round implements Process.
func (h *Hybrid) Round() int { return h.round }

// Done implements Process: every vertex is informed.
func (h *Hybrid) Done() bool { return h.count == h.g.N() }

// InformedCount implements Process (vertices).
func (h *Hybrid) InformedCount() int { return h.count }

// Messages implements Process.
func (h *Hybrid) Messages() int64 { return h.messages }

func (h *Hybrid) allAgentsInformed() bool { return h.countA == h.walks.N() }
func (h *Hybrid) source() graph.Vertex    { return h.src }

// Step implements Process: the walk step, then the exchange's side, its
// collect against the pre-round informed set, agent deposit, commit of
// both mechanisms' finds, then agent pickup. Exchange calls are
// counter-based pure functions of (seed, vertex, round), so resolving them
// after the walk step is the same as resolving them before it.
func (h *Hybrid) Step() {
	h.round++
	h.walks.Step()
	if h.observe != nil {
		observeMoves(h.observe, h.walks)
	}
	na := h.walks.N()
	h.plan(h.g, h.forceSide)
	h.messages += h.callers + int64(na)
	h.collect(h.g, &h.sampler, h.seed, uint64(h.round), 0)

	// Deposit: agents informed in a previous round — churn replacements
	// forget the rumor first — inform the vertex they landed on, collected
	// in agent-id order against the pre-commit informed set.
	h.countA = forgetRespawned(h.informedA, h.countA, h.walks.Respawned())
	pos := h.walks.Positions()
	if h.countA > 0 && h.count < h.g.N() {
		h.pending = collectDeposits(h.informedA, h.countA, h.informed, pos, h.pending)
	}

	// Commit newly informed vertices from both mechanisms.
	h.commit(h.g)

	// Pickup: agents standing on an informed vertex (old or new) become
	// informed.
	if h.countA < na {
		h.countA = pickupAgents(h.informedA, h.countA, h.informed, pos)
	}
}
