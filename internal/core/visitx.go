package core

import (
	"errors"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// LazyMode selects the walk laziness policy for agent protocols.
type LazyMode int

const (
	// LazyAuto uses lazy walks exactly when the graph is bipartite — the
	// paper's convention, which guarantees meet-exchange terminates.
	LazyAuto LazyMode = iota
	// LazyOff always uses simple (non-lazy) walks.
	LazyOff
	// LazyOn always uses lazy walks (stay put with probability 1/2).
	LazyOn
)

// AgentOptions configures the agent system shared by visit-exchange,
// meet-exchange and the hybrid.
type AgentOptions struct {
	// Alpha is the agent density: |A| = max(1, round(Alpha·n)). Ignored if
	// Count > 0. The paper's default regime is Alpha = Θ(1); this
	// repository uses Alpha = 1 unless stated otherwise.
	Alpha float64
	// Count overrides Alpha with an explicit number of agents.
	Count int
	// Lazy selects the laziness policy. Visit-exchange defaults to simple
	// walks; meet-exchange resolves LazyAuto to lazy on bipartite graphs.
	Lazy LazyMode
	// Placement selects the initial agent distribution (stationary by
	// default, or one agent per vertex, per the remark after Lemma 11).
	Placement agents.Placement
	// Fixed holds start vertices for agents.PlaceFixed.
	Fixed []graph.Vertex
	// ChurnRate enables the dynamic-agents extension (Section 9): each
	// round, each agent is replaced by a fresh uninformed agent with this
	// probability.
	ChurnRate float64
	// Observer, if non-nil, receives every agent traversal (a churn
	// respawn is not one). The hybrid reports its agent traversals only,
	// not its push-pull calls. Only single trials take one.
	Observer MoveObserver
}

func (o AgentOptions) agentCount(n int) int {
	if o.Count > 0 {
		return o.Count
	}
	alpha := o.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	return AgentCount(n, alpha)
}

func (o AgentOptions) walkConfig(g *graph.Graph, forceLazyAuto bool) agents.Config {
	lazy := false
	switch o.Lazy {
	case LazyOn:
		lazy = true
	case LazyAuto:
		if forceLazyAuto {
			lazy = g.Bipartite()
		}
	}
	return agents.Config{
		Count:     o.agentCount(g.N()),
		Lazy:      lazy,
		Placement: o.Placement,
		Fixed:     o.Fixed,
		ChurnRate: o.ChurnRate,
	}
}

// NewVisitExchange builds a single visit-exchange trial: the one-lane view
// of NewBatchedVisitExchange. Visit-exchange does not require lazy walks
// (vertices hold the rumor across parity classes), so LazyAuto resolves to
// simple walks.
func NewVisitExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	v, err := NewBatchedVisitExchange(g, s, []*xrand.RNG{rng}, opts)
	if err != nil {
		return nil, err
	}
	return newLaneView(v), nil
}

// NewMeetExchange builds a single meet-exchange trial: the one-lane view of
// NewBatchedMeetExchange. LazyAuto resolves to lazy walks on bipartite graphs.
func NewMeetExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	m, err := NewBatchedMeetExchange(g, s, []*xrand.RNG{rng}, opts)
	if err != nil {
		return nil, err
	}
	return newLaneView(m), nil
}

// errObserverLanes rejects an observer on a bundle of several trials:
// observer callbacks of concurrent lanes would interleave.
var errObserverLanes = errors.New("core: observers need a one-lane bundle")

// observeMoves reports the agent traversals of a one-lane walk system's
// latest round to obs, in agent-id order. Agents replaced by churn that
// round did not traverse an edge and are skipped.
func observeMoves(obs MoveObserver, w *agents.BatchedWalks) {
	prev, pos, resp := w.Prev(0), w.Lane(0), w.Respawned(0)
	for i, to := range pos {
		if len(resp) > 0 && resp[0] == i {
			resp = resp[1:]
			continue
		}
		obs(w.Round(), prev[i], to)
	}
}
