package core

import (
	"fmt"
	"math/bits"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Batched visit-exchange and meet-exchange bundles. Each lane carries the
// full per-trial protocol state (informed bitsets, counts); the walk step
// is fused across lanes by agents.BatchedWalks, and the informing passes
// run lane by lane after it. Lanes touch only their own state, so every
// lane's informed sets evolve bit-identically to a one-lane bundle with
// the same trial RNG — which is what NewVisitExchange and NewMeetExchange
// return.
//
// Visit-exchange informs vertices the way the hybrid's agent half does
// (collectDeposits, then pickupAgents): the deposit pass walks the agents,
// not the vertices, so a lane keeps no per-vertex state beyond its
// informed bitset.
//
// With churn, agents the walk step respawned are fresh and uninformed:
// each lane clears their informed bits before its informing passes. A
// one-lane bundle may carry an Observer, called with every agent traversal
// after the walk step.

// visitLane is one trial's visit-exchange state.
type visitLane struct {
	informedV *bitset.Set
	informedA *bitset.Set
	countV    int
	countA    int
	pending   []graph.Vertex
	messages  int64
}

// BatchedVisitExchange runs K visit-exchange trials in fused lockstep.
// Visit-exchange is the agent-based protocol where both vertices and
// agents store the rumor (Section 3): in round zero the source vertex and
// all agents on it become informed; in each subsequent round all agents
// take one random-walk step, every agent informed in a previous round
// informs the vertex it visits, and every agent standing on a vertex
// informed in a previous or the current round becomes informed.
type BatchedVisitExchange struct {
	g       *graph.Graph
	src     graph.Vertex
	walks   *agents.BatchedWalks
	lanes   []visitLane
	observe MoveObserver // one-lane bundles only
}

var _ LaneProcess = (*BatchedVisitExchange)(nil)

// NewBatchedVisitExchange builds a K = len(rngs) lane visit-exchange
// bundle; lane t's trial depends on rngs[t] alone, so lane t replays the
// one-lane bundle NewVisitExchange builds from the same RNG. Any churn rate
// is supported; an Observer needs K = 1.
func NewBatchedVisitExchange(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedVisitExchange, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.Observer != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	w, err := agents.NewBatched(g, opts.walkConfig(g, false), rngs)
	if err != nil {
		return nil, fmt.Errorf("visit-exchange: %w", err)
	}
	v := &BatchedVisitExchange{g: g, src: s, walks: w, lanes: make([]visitLane, len(rngs)), observe: opts.Observer}
	for t := range v.lanes {
		L := &v.lanes[t]
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
	return v, nil
}

// Name implements LaneProcess.
func (v *BatchedVisitExchange) Name() string { return "visit-exchange" }

// K implements LaneProcess.
func (v *BatchedVisitExchange) K() int { return len(v.lanes) }

// Source implements LaneProcess.
func (v *BatchedVisitExchange) Source() graph.Vertex { return v.src }

// LaneDone implements LaneProcess.
func (v *BatchedVisitExchange) LaneDone(t int) bool { return v.lanes[t].countV == v.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (v *BatchedVisitExchange) LaneInformedCount(t int) int { return v.lanes[t].countV }

// LaneMessages implements LaneProcess.
func (v *BatchedVisitExchange) LaneMessages(t int) int64 { return v.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess.
func (v *BatchedVisitExchange) LaneAllAgentsInformed(t int) bool {
	return v.lanes[t].countA == v.walks.N()
}

// Round returns the number of Step calls so far.
func (v *BatchedVisitExchange) Round() int { return v.walks.Round() }

// Step implements LaneProcess: one fused walk round, then the per-lane
// informing passes.
func (v *BatchedVisitExchange) Step(active []bool) {
	v.walks.Step(active)
	if v.observe != nil {
		observeMoves(v.observe, v.walks)
	}
	for t := range v.lanes {
		if active == nil || active[t] {
			v.stepLane(t)
		}
	}
}

// stepLane applies one round of visit-exchange informing to lane t: churn
// replacements forget the rumor, agents informed in a previous round
// deposit it on the vertices they landed on, then agents standing on an
// informed vertex (old or new) pick it up.
func (v *BatchedVisitExchange) stepLane(t int) {
	L := &v.lanes[t]
	pos := v.walks.Lane(t)
	L.messages += int64(len(pos))
	L.countA = forgetRespawned(L.informedA, L.countA, v.walks.Respawned(t))
	if L.countA > 0 && L.countV < v.g.N() {
		L.pending = collectDeposits(L.informedA, L.countA, L.informedV, pos, L.pending[:0])
		for _, p := range L.pending {
			if !L.informedV.Test(int(p)) {
				L.informedV.Set(int(p))
				L.countV++
			}
		}
	}
	if L.countA < len(pos) {
		L.countA = pickupAgents(L.informedA, L.countA, L.informedV, pos)
	}
}

// meetLane is one trial's meet-exchange state.
type meetLane struct {
	informedA    *bitset.Set
	countA       int
	occInf       *epochMark
	sourceActive bool
	newly        []int
	messages     int64
}

// BatchedMeetExchange runs K meet-exchange trials in fused lockstep.
// Meet-exchange is the agent-only protocol (Section 3): in round zero every
// agent standing on the source becomes informed; if none stands there, the
// first agent(s) to visit the source in a later round become informed,
// after which the source goes silent; thereafter the rumor passes only
// between agents that meet at a vertex, and only from agents informed in a
// previous round. On bipartite graphs two walks can have permanently
// disjoint parities, so the paper (and LazyAuto) uses lazy walks there;
// T_meetx would otherwise be infinite with positive probability.
type BatchedMeetExchange struct {
	g       *graph.Graph
	src     graph.Vertex
	walks   *agents.BatchedWalks
	lanes   []meetLane
	observe MoveObserver // one-lane bundles only
}

var _ LaneProcess = (*BatchedMeetExchange)(nil)

// NewBatchedMeetExchange builds a K = len(rngs) lane meet-exchange bundle;
// lane t replays the one-lane bundle NewMeetExchange builds from rngs[t]
// (see NewBatchedVisitExchange).
func NewBatchedMeetExchange(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts AgentOptions) (*BatchedMeetExchange, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.Observer != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	w, err := agents.NewBatched(g, opts.walkConfig(g, true), rngs)
	if err != nil {
		return nil, fmt.Errorf("meet-exchange: %w", err)
	}
	m := &BatchedMeetExchange{g: g, src: s, walks: w, lanes: make([]meetLane, len(rngs)), observe: opts.Observer}
	for t := range m.lanes {
		L := &m.lanes[t]
		L.informedA = bitset.New(w.N())
		L.occInf = newEpochMark(g.N())
		for i, p := range w.Lane(t) {
			if p == s {
				L.informedA.Set(i)
				L.countA++
			}
		}
		L.sourceActive = L.countA == 0
	}
	return m, nil
}

// Name implements LaneProcess.
func (m *BatchedMeetExchange) Name() string { return "meet-exchange" }

// K implements LaneProcess.
func (m *BatchedMeetExchange) K() int { return len(m.lanes) }

// Source implements LaneProcess.
func (m *BatchedMeetExchange) Source() graph.Vertex { return m.src }

// LaneDone implements LaneProcess: every agent informed.
func (m *BatchedMeetExchange) LaneDone(t int) bool { return m.lanes[t].countA == m.walks.N() }

// LaneInformedCount implements LaneProcess (agents).
func (m *BatchedMeetExchange) LaneInformedCount(t int) int { return m.lanes[t].countA }

// LaneMessages implements LaneProcess.
func (m *BatchedMeetExchange) LaneMessages(t int) int64 { return m.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess.
func (m *BatchedMeetExchange) LaneAllAgentsInformed(t int) bool { return m.LaneDone(t) }

// Round returns the number of Step calls so far.
func (m *BatchedMeetExchange) Round() int { return m.walks.Round() }

// Step implements LaneProcess: one fused walk round, then the per-lane
// meeting passes.
func (m *BatchedMeetExchange) Step(active []bool) {
	m.walks.Step(active)
	if m.observe != nil {
		observeMoves(m.observe, m.walks)
	}
	for t := range m.lanes {
		if active == nil || active[t] {
			m.stepLane(t)
		}
	}
}

// stepLane applies one round of meet-exchange informing to lane t: churn
// replacements forget the rumor, then meetings and the source rule inform.
func (m *BatchedMeetExchange) stepLane(t int) {
	L := &m.lanes[t]
	pos := m.walks.Lane(t)
	na := len(pos)
	L.messages += int64(na)
	L.countA = forgetRespawned(L.informedA, L.countA, m.walks.Respawned(t))

	// Mark vertices occupied by agents informed in a previous round, then
	// collect uninformed agents meeting them.
	L.occInf.next()
	L.newly = L.newly[:0]
	if L.countA > 0 && L.countA < na {
		aw := L.informedA.Words()
		markInformed(L.occInf, aw, pos)
		for wi := range aw {
			inv := ^aw[wi]
			if rem := na - wi<<6; rem < 64 {
				inv &= 1<<uint(rem) - 1
			}
			for ; inv != 0; inv &= inv - 1 {
				i := wi<<6 + bits.TrailingZeros64(inv)
				if L.occInf.marked(pos[i]) {
					L.newly = append(L.newly, i)
				}
			}
		}
	}

	// Source rule: while active, every agent visiting s this round becomes
	// informed, then the source goes silent.
	if L.sourceActive {
		visited := false
		for i := 0; i < na; i++ {
			if pos[i] == m.src {
				visited = true
				L.newly = append(L.newly, i)
			}
		}
		if visited {
			L.sourceActive = false
		}
	}
	for _, i := range L.newly {
		if !L.informedA.Test(i) {
			L.informedA.Set(i)
			L.countA++
		}
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
