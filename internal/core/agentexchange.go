package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The agent-exchange process: visit-exchange and meet-exchange, which
// differ in one respect (Section 3) — visit-exchange keeps the rumor on
// vertices as well as on agents, meet-exchange on agents only. A trial
// carries its walk system, two bitsets and counts.
//
// Both protocols inform through the same two passes over the agents:
// informed agents mark their vertices in the vertex set (markDeposits),
// then uninformed agents on a set vertex pick up (pickupAgents, shared
// with the hybrid's agent half). With memory (visit-exchange) the vertex
// set is the informed vertices, and the mark counts the bits it newly
// sets. Without it (meet-exchange) the set is transient: while no agent
// is informed it holds the source, and once one is, it is cleared every
// round and rebuilt by the mark.
//
// With churn, agents the walk step respawned are fresh and uninformed: a
// round clears their informed bits before its informing passes. An
// Observer is called with every agent traversal after the walk step.

// AgentExchange is one trial of an agent protocol. In round zero
// the agents standing on the source become informed; in each subsequent
// round all agents take one random-walk step and then:
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
type AgentExchange struct {
	g         *graph.Graph
	src       graph.Vertex
	memory    bool // visit-exchange; meet-exchange when false
	walks     *agents.Walks
	informedV *bitset.Set // informed vertices; without memory, the transient set
	informedA *bitset.Set
	countV    int // with memory only
	countA    int
	messages  int64
	observe   MoveObserver
}

func newAgentExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions, memory bool) (Process, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	x := &AgentExchange{g: g, src: s, memory: memory, observe: opts.Observer}
	w, err := agents.New(g, opts.walkConfig(g, !memory), rng)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", x.Name(), err)
	}
	x.walks = w
	x.informedV = bitset.New(g.N())
	x.informedA, x.countA = informedOn(w.Positions(), s)
	// Without memory the source holds the rumor only until an agent does:
	// an informed agent implies a silent source.
	if memory || x.countA == 0 {
		x.informedV.Set(int(s))
		x.countV = 1
	}
	return x, nil
}

// informedOn returns the round-zero agent set: the agents standing on the
// source s, and their count.
func informedOn(pos []graph.Vertex, s graph.Vertex) (*bitset.Set, int) {
	set, count := bitset.New(len(pos)), 0
	for i, p := range pos {
		if p == s {
			set.Set(i)
			count++
		}
	}
	return set, count
}

// Name implements Process.
func (x *AgentExchange) Name() string {
	if x.memory {
		return "visit-exchange"
	}
	return "meet-exchange"
}

// Round implements Process.
func (x *AgentExchange) Round() int { return x.walks.Round() }

// Done implements Process: every vertex informed with memory, every agent
// without.
func (x *AgentExchange) Done() bool {
	if x.memory {
		return x.countV == x.g.N()
	}
	return x.allAgentsInformed()
}

// InformedCount implements Process: vertices with memory, agents without.
func (x *AgentExchange) InformedCount() int {
	if x.memory {
		return x.countV
	}
	return x.countA
}

// Messages implements Process.
func (x *AgentExchange) Messages() int64 { return x.messages }

func (x *AgentExchange) allAgentsInformed() bool { return x.countA == x.walks.N() }
func (x *AgentExchange) source() graph.Vertex    { return x.src }

// Step implements Process: the walk step, then the informing passes —
// churn replacements forget the rumor, agents informed in a previous
// round deposit it on the vertices they landed on, then agents standing
// on a set vertex (old or new) pick it up.
func (x *AgentExchange) Step() {
	x.walks.Step()
	if x.observe != nil {
		observeMoves(x.observe, x.walks)
	}
	pos := x.walks.Positions()
	x.messages += int64(len(pos))
	if !x.memory && x.countA > 0 {
		// The source is silent: the set is rebuilt from the agents.
		clear(x.informedV.Words())
	}
	x.countA = forgetRespawned(x.informedA, x.countA, x.walks.Respawned())
	switch {
	case x.countA == 0:
	case !x.memory:
		markDeposits(x.informedA, x.countA, x.informedV.Words(), pos)
	case x.countV < x.g.N():
		x.countV += markDeposits(x.informedA, x.countA, x.informedV.Words(), pos)
	}
	// Without memory or informed agents, the set holds the source or,
	// once churn has lost the rumor, nothing.
	if x.countA < len(pos) && (x.memory || x.countA > 0 || x.informedV.Test(int(x.src))) {
		x.countA = pickupAgents(x.informedA, x.countA, x.informedV, pos)
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
