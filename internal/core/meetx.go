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

// MeetExchange is the agent-only protocol (Section 3): agents perform
// independent random walks; in round zero every agent standing on the
// source becomes informed; if none stands there, the first agent(s) to
// visit the source in a later round become informed, after which the source
// goes silent; thereafter the rumor passes only between agents that meet at
// a vertex, and only from agents informed in a previous round.
//
// On bipartite graphs two walks can have permanently disjoint parities, so
// the paper (and this implementation, with LazyAuto) uses lazy walks there;
// T_meetx would otherwise be infinite with positive probability.
//
// Rounds run on the deterministic parallel engine: the walk step draws
// per-(agent, round) streams, informed-agent occupancy is marked serially,
// and the meeting scan shards over the uninformed agents (reading the
// occupancy stamps only), merging finds in ascending agent-id order —
// bit-identical results for a given seed at any GOMAXPROCS.
type MeetExchange struct {
	g     *graph.Graph
	src   graph.Vertex
	walks *agents.Walks
	opts  AgentOptions

	informedA    *bitset.Set
	occInf       *epochMark // vertices holding >=1 previously-informed agent
	countA       int
	newlyA       []int
	shardA       shardBufs[int32]
	bufsA        [][]int32
	shards       int // shards of an agent pass; atomic stamps when > 1
	markFn       func(shard, lo, hi int)
	meetFn       func(shard, lo, hi int)
	sourceActive bool
	round        int
	messages     int64
}

var _ Process = (*MeetExchange)(nil)

// NewMeetExchange builds a meet-exchange process.
func NewMeetExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (*MeetExchange, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	w, err := agents.New(g, opts.walkConfig(g, true), rng)
	if err != nil {
		return nil, fmt.Errorf("meet-exchange: %w", err)
	}
	m := &MeetExchange{
		g:         g,
		src:       s,
		walks:     w,
		opts:      opts,
		informedA: bitset.New(w.N()),
		occInf:    newEpochMark(g.N()),
	}
	m.shards = 1
	m.markFn = m.markShard
	m.meetFn = m.meetShard
	// Round zero: agents standing on the source are informed; if none, the
	// source stays active until its first visitor.
	for i := 0; i < w.N(); i++ {
		if w.Pos(i) == s {
			m.informedA.Set(i)
			m.countA++
		}
	}
	m.sourceActive = m.countA == 0
	return m, nil
}

// Name implements Process.
func (m *MeetExchange) Name() string { return "meet-exchange" }

// Round implements Process.
func (m *MeetExchange) Round() int { return m.round }

// Done implements Process: broadcast time is when every agent is informed.
func (m *MeetExchange) Done() bool { return m.countA == m.walks.N() }

// InformedCount implements Process (agents).
func (m *MeetExchange) InformedCount() int { return m.countA }

// AllAgentsInformed implements the agentTracker interface.
func (m *MeetExchange) AllAgentsInformed() bool { return m.Done() }

// Messages implements Process: one token message per agent step.
func (m *MeetExchange) Messages() int64 { return m.messages }

// Source implements the sourced interface.
func (m *MeetExchange) Source() graph.Vertex { return m.src }

// AgentCount returns |A|.
func (m *MeetExchange) AgentCount() int { return m.walks.N() }

// setBudget sizes the walk step and the agent passes alike: all of them
// do one unit of work per agent.
func (m *MeetExchange) setBudget(b budget) {
	m.shards = b.For(m.walks.N())
	m.walks.SetShards(m.shards)
}

// SourceActive reports whether the source vertex is still waiting for its
// first visitor.
func (m *MeetExchange) SourceActive() bool { return m.sourceActive }

// Step implements Process.
func (m *MeetExchange) Step() {
	m.round++
	m.walks.Step(nil)
	na := m.walks.N()
	m.messages += int64(na)
	for _, id := range m.walks.Respawned() {
		if m.informedA.Test(id) {
			m.informedA.Clear(id)
			m.countA--
		}
	}
	if m.opts.Observer != nil {
		for i := 0; i < na; i++ {
			m.opts.Observer(m.round, m.walks.Prev(i), m.walks.Pos(i))
		}
	}
	pos := m.walks.Positions()

	// Mark vertices occupied by agents informed in a previous round
	// (queries run after the barrier), then collect the meetings:
	// uninformed agents co-located with previously informed ones,
	// shard-by-shard in agent-id order.
	m.occInf.next()
	m.newlyA = m.newlyA[:0]
	if m.countA > 0 && m.countA < na {
		words := len(m.informedA.Words())
		par.DoN(m.shards, words, m.markFn)
		m.bufsA = m.shardA.acquire(m.shards)
		par.DoN(m.shards, words, m.meetFn)
		for _, buf := range m.bufsA {
			for _, i := range buf {
				m.newlyA = append(m.newlyA, int(i))
			}
		}
	}

	// Source rule: while active, every agent visiting s this round becomes
	// informed (all simultaneous visitors), then the source goes silent.
	if m.sourceActive {
		visited := false
		for i := 0; i < na; i++ {
			if pos[i] == m.src {
				visited = true
				m.newlyA = append(m.newlyA, i)
			}
		}
		if visited {
			m.sourceActive = false
		}
	}
	// Apply; newlyA may contain duplicates (meeting + source rule), so the
	// informed check guards the count.
	for _, i := range m.newlyA {
		if !m.informedA.Test(i) {
			m.informedA.Set(i)
			m.countA++
		}
	}
}

// markShard stamps the current vertex of every informed agent in bitset
// words [lo, hi).
func (m *MeetExchange) markShard(_, lo, hi int) {
	markInformed(m.occInf, m.informedA.Words(), m.walks.Positions(), lo, hi, m.shards > 1)
}

// meetShard scans uninformed agents in bitset words [lo, hi) and collects
// those standing on a vertex visited by a previously informed agent. It
// only reads shared state; Step's serial merge commits.
func (m *MeetExchange) meetShard(shard, lo, hi int) {
	aw := m.informedA.Words()
	pos := m.walks.Positions()
	na := m.walks.N()
	buf := m.bufsA[shard]
	for wi := lo; wi < hi; wi++ {
		inv := ^aw[wi]
		if rem := na - wi<<6; rem < 64 {
			inv &= 1<<uint(rem) - 1
		}
		for ; inv != 0; inv &= inv - 1 {
			i := wi<<6 + bits.TrailingZeros64(inv)
			if m.occInf.marked(pos[i]) {
				buf = append(buf, int32(i))
			}
		}
	}
	m.bufsA[shard] = buf
}
