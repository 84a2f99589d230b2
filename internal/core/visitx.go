package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
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

// AgentOptions configures the agent system shared by visit-exchange and
// meet-exchange.
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
	// Observer, if non-nil, receives every agent traversal.
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

// VisitExchange is the agent-based protocol where both vertices and agents
// store the rumor (Section 3): in round zero the source vertex and all
// agents on it become informed; in each subsequent round all agents take
// one random-walk step, every agent informed in a previous round informs
// the vertex it visits, and every agent standing on a vertex informed in a
// previous or the current round becomes informed.
//
// Rounds run on the deterministic parallel engine: the walk step draws
// per-(agent, round) streams (see package agents), and the two informing
// passes scan shards of the agent bitset concurrently, committing their
// finds in ascending shard — hence agent-id — order. Both informing passes
// have pure set semantics, so the committed state is independent of scan
// order; results are bit-identical for a given seed at any GOMAXPROCS.
type VisitExchange struct {
	g     *graph.Graph
	src   graph.Vertex
	walks *agents.Walks
	opts  AgentOptions

	informedV *bitset.Set // vertices
	informedA *bitset.Set // agents
	countV    int
	countA    int

	// occInf stamps the vertices informed agents stand on this round;
	// uninfV lists the still-uninformed vertices (swap-removed as they
	// inform), so pass 1 costs one store per informed agent plus one load
	// per uninformed vertex instead of a bitset probe per agent.
	occInf *epochMark
	uninfV []graph.Vertex

	// Reusable shard machinery: bound once so steady-state stepping
	// allocates nothing.
	shardA   shardBufs[int32]
	bufsA    [][]int32
	shards   int // shards of an agent pass; atomic stamps when > 1
	markFn   func(shard, lo, hi int)
	pass2Fn  func(shard, lo, hi int)
	round    int
	messages int64

	// fuseMark enables folding pass 1's occupancy marking into the walk
	// step once every agent is informed (see Step). On by default; the
	// equivalence test clears it to pin the fused path against the
	// separate-pass path.
	fuseMark bool
}

var _ Process = (*VisitExchange)(nil)

// NewVisitExchange builds a visit-exchange process. Visit-exchange does not
// require lazy walks (vertices hold the rumor across parity classes), so
// LazyAuto resolves to simple walks.
func NewVisitExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (*VisitExchange, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	w, err := agents.New(g, opts.walkConfig(g, false), rng)
	if err != nil {
		return nil, fmt.Errorf("visit-exchange: %w", err)
	}
	v := &VisitExchange{
		g:         g,
		src:       s,
		walks:     w,
		opts:      opts,
		informedV: bitset.New(g.N()),
		informedA: bitset.New(w.N()),
		countV:    1,
		occInf:    newEpochMark(g.N()),
		uninfV:    make([]graph.Vertex, 0, g.N()-1),
		fuseMark:  true,
	}
	v.shards = 1
	v.markFn = v.markShard
	v.pass2Fn = v.pass2Shard
	// Round zero: the source vertex and every agent standing on it.
	v.informedV.Set(int(s))
	for u := 0; u < g.N(); u++ {
		if graph.Vertex(u) != s {
			v.uninfV = append(v.uninfV, graph.Vertex(u))
		}
	}
	for i := 0; i < w.N(); i++ {
		if w.Pos(i) == s {
			v.informedA.Set(i)
			v.countA++
		}
	}
	return v, nil
}

// Name implements Process.
func (v *VisitExchange) Name() string { return "visit-exchange" }

// Round implements Process.
func (v *VisitExchange) Round() int { return v.round }

// Done implements Process. Broadcast time is the round when every vertex is
// informed (the paper notes all agents are informed by then as well).
func (v *VisitExchange) Done() bool { return v.countV == v.g.N() }

// InformedCount implements Process (vertices).
func (v *VisitExchange) InformedCount() int { return v.countV }

// InformedAgents returns the number of informed agents.
func (v *VisitExchange) InformedAgents() int { return v.countA }

// AllAgentsInformed implements the agentTracker interface.
func (v *VisitExchange) AllAgentsInformed() bool { return v.countA == v.walks.N() }

// Messages implements Process: one token message per agent step.
func (v *VisitExchange) Messages() int64 { return v.messages }

// Source implements the sourced interface.
func (v *VisitExchange) Source() graph.Vertex { return v.src }

// AgentCount returns |A|.
func (v *VisitExchange) AgentCount() int { return v.walks.N() }

// setBudget sizes the walk step and the agent passes alike: all of them
// do one unit of work per agent.
func (v *VisitExchange) setBudget(b budget) {
	v.shards = b.For(v.walks.N())
	v.walks.SetShards(v.shards)
}

// Step implements Process.
func (v *VisitExchange) Step() {
	v.round++
	na := v.walks.N()
	// Once every agent is informed — a permanent state without churn, and
	// the common regime through the Ω(n) broadcast tails of Fig. 1c/1d —
	// pass 1's "stamp every informed agent's position" is exactly "stamp
	// every agent's destination", which the walk step can do in the same
	// pass that writes positions. This saves the extra sweep over all
	// agent positions every remaining round; draws are untouched, so
	// results are bit-identical to the unfused path (pinned by
	// TestVisitExchangeFusedMarkEquivalence).
	fused := v.fuseMark && v.opts.ChurnRate == 0 && v.countA == na && v.countV < v.g.N()
	if fused {
		v.occInf.next()
		v.walks.StepStamped(v.occInf.stamp, v.occInf.epoch)
	} else {
		v.walks.Step(nil)
	}
	v.messages += int64(na)
	// Churned agents are fresh and uninformed.
	for _, id := range v.walks.Respawned() {
		if v.informedA.Test(id) {
			v.informedA.Clear(id)
			v.countA--
		}
	}
	if v.opts.Observer != nil {
		for i := 0; i < na; i++ {
			v.opts.Observer(v.round, v.walks.Prev(i), v.walks.Pos(i))
		}
	}
	words := len(v.informedA.Words())

	// Pass 1: agents informed in a previous round inform their vertex —
	// stamp every informed agent's position, then sweep the uninformed
	// vertex list for stamped entries. Skipped when it cannot change
	// anything (no informed agents, or every vertex already informed).
	// On the fused path the stamping already happened inside the walk
	// step; only the sweep remains.
	if v.countA > 0 && v.countV < v.g.N() {
		if !fused {
			v.occInf.next()
			if v.countA == na {
				// Every agent is informed (the common state through the
				// Ω(n) tails of Fig. 1c/1d): stamp positions directly,
				// skipping the informedA word decode.
				v.markAllShard(0, 0, na)
			} else {
				par.DoN(v.shards, words, v.markFn)
			}
		}
		list := v.uninfV
		for k := 0; k < len(list); {
			p := list[k]
			if v.occInf.marked(p) {
				v.informedV.Set(int(p))
				v.countV++
				list[k] = list[len(list)-1]
				list = list[:len(list)-1]
				continue // re-examine the swapped-in entry
			}
			k++
		}
		v.uninfV = list
	}

	// Pass 2: agents on a vertex informed in a previous or this round
	// become informed (effective from the next round). Skipped once every
	// agent is informed.
	if v.countA < na {
		v.bufsA = v.shardA.acquire(v.shards)
		par.DoN(v.shards, words, v.pass2Fn)
		for _, buf := range v.bufsA {
			for _, i := range buf {
				v.informedA.Set(int(i))
				v.countA++
			}
		}
	}
}

// markAllShard stamps the current vertex of every agent in [lo, hi),
// valid exactly when all agents are informed.
func (v *VisitExchange) markAllShard(_, lo, hi int) {
	pos := v.walks.Positions()
	stamp, epoch := v.occInf.stamp, v.occInf.epoch
	for _, p := range pos[lo:hi] {
		stamp[p] = epoch
	}
}

// markShard stamps the current vertex of every informed agent in bitset
// words [lo, hi); the sweep in Step runs after the barrier.
func (v *VisitExchange) markShard(_, lo, hi int) {
	markInformed(v.occInf, v.informedA.Words(), v.walks.Positions(), lo, hi, v.shards > 1)
}

// pass2Shard collects the uninformed agents in bitset words [lo, hi)
// standing on an informed vertex.
func (v *VisitExchange) pass2Shard(shard, lo, hi int) {
	v.bufsA[shard] = collectPickups(v.informedA, v.informedV, v.walks.Positions(), lo, hi, v.bufsA[shard])
}
