package core

import (
	"fmt"
	"math/bits"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The agent-exchange bundle: visit-exchange and meet-exchange, which differ
// in one respect (Section 3) — visit-exchange keeps the rumor on vertices
// as well as on agents, meet-exchange on agents only. Each lane carries the
// full per-trial protocol state (two bitsets and counts); the walk step is
// fused across lanes by agents.BatchedWalks, and the informing passes run
// lane by lane after it. Lanes touch only their own state, so every lane's
// informed sets evolve bit-identically to a one-lane bundle with the same
// trial RNG — which is what NewVisitExchange and NewMeetExchange return.
//
// Both protocols inform through the same two passes over the agents:
// informed agents deposit on the vertex set, then uninformed agents on a
// set vertex pick up (pickupAgents, shared with the hybrid's agent half).
// With memory (visit-exchange) the vertex set is the informed vertices and
// deposits go through collectDeposits and a commit. Without it
// (meet-exchange) the set is transient: while no agent is informed it
// holds the source, and once one is, it is cleared every round and each
// agent informed before the round marks its vertex directly.
//
// With churn, agents the walk step respawned are fresh and uninformed:
// each lane clears their informed bits before its informing passes. A
// one-lane bundle may carry an Observer, called with every agent traversal
// after the walk step.

// agentLane is one trial's agent-exchange state.
type agentLane struct {
	informedV *bitset.Set // informed vertices; without memory, the transient set
	informedA *bitset.Set
	countV    int // with memory only
	countA    int
	pending   []graph.Vertex
	messages  int64
}

// BatchedAgentExchange runs K trials of an agent protocol in fused
// lockstep. In round zero the agents standing on the source become
// informed; in each subsequent round all agents take one random-walk step
// and then:
//
//   - visit-exchange (memory on): every agent informed in a previous round
//     informs the vertex it visits, and every agent standing on a vertex
//     informed in a previous or the current round becomes informed;
//   - meet-exchange (memory off): every agent standing on a vertex with an
//     agent informed in a previous round becomes informed. If no agent
//     starts on the source, the first agent(s) to visit it become
//     informed, after which the source goes silent.
//
// On bipartite graphs two walks can have permanently disjoint parities, so
// the paper (and LazyAuto) uses lazy walks for meet-exchange there;
// T_meetx would otherwise be infinite with positive probability.
type BatchedAgentExchange struct {
	g       *graph.Graph
	src     graph.Vertex
	memory  bool // visit-exchange; meet-exchange when false
	walks   *agents.BatchedWalks
	lanes   []agentLane
	observe MoveObserver // one-lane bundles only
}

var _ LaneProcess = (*BatchedAgentExchange)(nil)

// NewBatchedVisitExchange builds a K = len(rngs) lane visit-exchange
// bundle; lane t's trial depends on rngs[t] alone, so lane t replays the
// one-lane bundle NewVisitExchange builds from the same RNG. Any churn rate
// is supported; an Observer needs K = 1.
func NewBatchedVisitExchange(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedAgentExchange, error) {
	return newBatchedAgentExchange(g, s, rngs, opts, true)
}

// NewBatchedMeetExchange builds a K = len(rngs) lane meet-exchange bundle;
// lane t replays the one-lane bundle NewMeetExchange builds from rngs[t]
// (see NewBatchedVisitExchange).
func NewBatchedMeetExchange(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedAgentExchange, error) {
	return newBatchedAgentExchange(g, s, rngs, opts, false)
}

func newBatchedAgentExchange(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions, memory bool) (*BatchedAgentExchange, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.Observer != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	x := &BatchedAgentExchange{g: g, src: s, memory: memory, lanes: make([]agentLane, len(rngs)), observe: opts.Observer}
	w, err := agents.NewBatched(g, opts.walkConfig(g, !memory), rngs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", x.Name(), err)
	}
	x.walks = w
	for t := range x.lanes {
		L := &x.lanes[t]
		L.informedV = bitset.New(g.N())
		L.informedA = bitset.New(w.N())
		for i, p := range w.Lane(t) {
			if p == s {
				L.informedA.Set(i)
				L.countA++
			}
		}
		// Without memory the source holds the rumor only until an agent
		// does: an informed agent implies a silent source.
		if memory || L.countA == 0 {
			L.informedV.Set(int(s))
			L.countV = 1
		}
	}
	return x, nil
}

// Name implements LaneProcess.
func (x *BatchedAgentExchange) Name() string {
	if x.memory {
		return "visit-exchange"
	}
	return "meet-exchange"
}

// K implements LaneProcess.
func (x *BatchedAgentExchange) K() int { return len(x.lanes) }

// Source implements LaneProcess.
func (x *BatchedAgentExchange) Source() graph.Vertex { return x.src }

// LaneDone implements LaneProcess: every vertex informed with memory,
// every agent without.
func (x *BatchedAgentExchange) LaneDone(t int) bool {
	if x.memory {
		return x.lanes[t].countV == x.g.N()
	}
	return x.LaneAllAgentsInformed(t)
}

// LaneInformedCount implements LaneProcess: vertices with memory, agents
// without.
func (x *BatchedAgentExchange) LaneInformedCount(t int) int {
	if x.memory {
		return x.lanes[t].countV
	}
	return x.lanes[t].countA
}

// LaneMessages implements LaneProcess.
func (x *BatchedAgentExchange) LaneMessages(t int) int64 { return x.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess.
func (x *BatchedAgentExchange) LaneAllAgentsInformed(t int) bool {
	return x.lanes[t].countA == x.walks.N()
}

// Round returns the number of Step calls so far.
func (x *BatchedAgentExchange) Round() int { return x.walks.Round() }

// Step implements LaneProcess: one fused walk round, then the per-lane
// informing passes.
func (x *BatchedAgentExchange) Step(active []bool) {
	x.walks.Step(active)
	if x.observe != nil {
		observeMoves(x.observe, x.walks)
	}
	for t := range x.lanes {
		if active == nil || active[t] {
			x.stepLane(t)
		}
	}
}

// stepLane applies one round of informing to lane t: churn replacements
// forget the rumor, agents informed in a previous round deposit it on the
// vertices they landed on, then agents standing on a set vertex (old or
// new) pick it up.
func (x *BatchedAgentExchange) stepLane(t int) {
	L := &x.lanes[t]
	pos := x.walks.Lane(t)
	L.messages += int64(len(pos))
	if !x.memory && L.countA > 0 {
		// The source is silent: the set is rebuilt from the agents.
		clear(L.informedV.Words())
	}
	L.countA = forgetRespawned(L.informedA, L.countA, x.walks.Respawned(t))
	switch {
	case L.countA == 0:
	case !x.memory:
		// A direct mark, one OR per informed agent: no collect, no commit.
		vw := L.informedV.Words()
		for wi, wd := range L.informedA.Words() {
			for ; wd != 0; wd &= wd - 1 {
				p := uint32(pos[wi<<6+bits.TrailingZeros64(wd)])
				vw[p>>6] |= 1 << (p & 63)
			}
		}
	case L.countV < x.g.N():
		L.pending = collectDeposits(L.informedA, L.countA, L.informedV, pos, L.pending[:0])
		for _, p := range L.pending {
			if !L.informedV.Test(int(p)) {
				L.informedV.Set(int(p))
				L.countV++
			}
		}
	}
	// Without memory or informed agents, the set holds the source or,
	// once churn has lost the rumor, nothing.
	if L.countA < len(pos) && (x.memory || L.countA > 0 || L.informedV.Test(int(x.src))) {
		L.countA = pickupAgents(L.informedA, L.countA, L.informedV, pos)
	}
}

// forgetRespawned clears the informed bits of the agents churn replaced —
// fresh agents are uninformed — and returns the new informed count.
func forgetRespawned(informedA *bitset.Set, countA int, respawned []int) int {
	for _, id := range respawned {
		if informedA.Test(id) {
			informedA.Clear(id)
			countA--
		}
	}
	return countA
}
