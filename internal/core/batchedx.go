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

// Batched visit-exchange and meet-exchange bundles. Each lane carries the
// full per-trial protocol state (informed sets, counts, occupancy marks);
// the walk step is fused across lanes by agents.BatchedWalks, and the
// visit-exchange informing passes are fused into cross-lane sweeps: one
// pass-major sweep per stage (occupancy stamping, uninformed-vertex sweep,
// agent pickup) over all active lanes, instead of each lane running its
// full pass sequence in isolation. Lanes in the all-agents-informed regime
// — the Ω(n) broadcast tails of the paper's star-like families, where the
// stamping pass used to dominate batched rounds — skip the stamping stage
// entirely when there is no churn: their marks are written by the fused
// walk step itself (agents.BatchedWalks.StepStamped), one store per agent
// in the same pass that writes the position. When the bundle's budget and
// the round's work allow, the sweeps shard across lanes, since lanes touch
// only their own state; every stage keeps exactly the one-trial pass
// semantics, so every lane's informed sets evolve bit-identically to a
// one-lane bundle with the same trial RNG — which is what
// NewVisitExchange and NewMeetExchange return.
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
	uninfV    []graph.Vertex
	occInf    *epochMark
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
	churn   bool

	activeIDs []int
	// stamps/epochs/fused carry the per-round StepStamped wiring: lane t
	// is fused when every one of its agents is informed, in which case the
	// walk step stamps its occupancy and the stamping stage skips it.
	stamps [][]uint32
	epochs []uint32
	fused  []bool
	budget budget
	laneFn func(shard, lo, hi int)

	// fuseMark enables folding fused lanes' occupancy stamping into the
	// walk step. On by default; the equivalence test clears it to pin the
	// fused path against the separate-stage path.
	fuseMark bool
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
	v := &BatchedVisitExchange{g: g, src: s, walks: w, lanes: make([]visitLane, len(rngs)), observe: opts.Observer, churn: opts.ChurnRate > 0}
	v.laneFn = v.laneShard
	v.fuseMark = true
	v.stamps = make([][]uint32, len(rngs))
	v.epochs = make([]uint32, len(rngs))
	v.fused = make([]bool, len(rngs))
	// The initial uninformed-vertex list is the same for every lane; build
	// it once and copy.
	uninf := make([]graph.Vertex, 0, g.N()-1)
	for u := 0; u < g.N(); u++ {
		if graph.Vertex(u) != s {
			uninf = append(uninf, graph.Vertex(u))
		}
	}
	for t := range v.lanes {
		L := &v.lanes[t]
		L.informedV = bitset.New(g.N())
		L.informedA = bitset.New(w.N())
		L.countV = 1
		L.occInf = newEpochMark(g.N())
		L.uninfV = append(make([]graph.Vertex, 0, g.N()-1), uninf...)
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

func (v *BatchedVisitExchange) setBudget(b budget) { v.budget = b }

// Round returns the number of Step calls so far.
func (v *BatchedVisitExchange) Round() int { return v.walks.Round() }

// Step implements LaneProcess: one fused walk round — stamping the
// occupancy of lanes whose agents are all informed in the same pass — then
// the informing stages as cross-lane sweeps over the active lanes.
func (v *BatchedVisitExchange) Step(active []bool) {
	n := v.g.N()
	na := v.walks.N()
	anyFused := false
	for t := range v.lanes {
		v.stamps[t] = nil
		v.fused[t] = false
		if active != nil && !active[t] {
			continue
		}
		L := &v.lanes[t]
		if v.fuseMark && !v.churn && L.countA == na && L.countV < n {
			// Every agent is informed (a permanent state without churn),
			// so "stamp every informed agent's position" is exactly
			// "stamp every agent's destination" — the walk step does it in
			// the pass that writes positions.
			L.occInf.next()
			v.stamps[t] = L.occInf.stamp
			v.epochs[t] = L.occInf.epoch
			v.fused[t] = true
			anyFused = true
		}
	}
	// The walk step and the informing sweeps each do one unit of work per
	// (active lane, agent).
	v.activeIDs = activeLanes(v.activeIDs[:0], active, len(v.lanes))
	shards := v.budget.For(len(v.activeIDs) * na)
	v.walks.SetShards(shards)
	if anyFused {
		v.walks.StepStamped(active, v.stamps, v.epochs)
	} else {
		v.walks.Step(active)
	}
	if v.observe != nil {
		observeMoves(v.observe, v.walks)
	}
	par.DoN(shards, len(v.activeIDs), v.laneFn)
}

// laneShard runs the informing passes for active lanes [lo, hi) as one
// cross-lane sweep per stage — all lanes' occupancy stamping, then all
// lanes' uninformed-vertex sweeps, then all lanes' agent pickups — rather
// than each lane running its full pass sequence in isolation. Stages keep
// the serial per-lane pass order (a lane's sweep always sees its own
// completed stamping) while each sweep runs one uniform access pattern
// across the shard's lanes; with StepStamped fusion the first stage is
// empty for lanes in the all-informed regime.
func (v *BatchedVisitExchange) laneShard(_, lo, hi int) {
	ids := v.activeIDs[lo:hi]
	for _, t := range ids {
		v.markLane(t)
	}
	for _, t := range ids {
		v.sweepLane(t)
	}
	for _, t := range ids {
		v.pickupLane(t)
	}
}

// markLane is pass 1's stamping for lane t: mark the position of every
// agent informed in a previous round (one store per agent beats a probe
// per agent: the stamp retires without a dependent branch). Fused lanes
// were stamped inside the walk step and are skipped. Being the first stage
// of the round, it also charges the round's token messages and forgets
// the agents churn replaced.
func (v *BatchedVisitExchange) markLane(t int) {
	L := &v.lanes[t]
	pos := v.walks.Lane(t)
	na := len(pos)
	L.messages += int64(na)
	L.countA = forgetRespawned(L.informedA, L.countA, v.walks.Respawned(t))
	if v.fused[t] || L.countA == 0 || L.countV == v.g.N() {
		return
	}
	L.occInf.next()
	if L.countA == na {
		stamp, epoch := L.occInf.stamp, L.occInf.epoch
		for _, p := range pos {
			stamp[p] = epoch
		}
		return
	}
	aw := L.informedA.Words()
	markInformed(L.occInf, aw, pos)
}

// sweepLane is pass 1's commit for lane t: sweep the uninformed vertex
// list for stamped entries, swap-removing each one it informs.
func (v *BatchedVisitExchange) sweepLane(t int) {
	L := &v.lanes[t]
	if L.countA == 0 || L.countV == v.g.N() {
		return
	}
	list := L.uninfV
	for k := 0; k < len(list); {
		p := list[k]
		if L.occInf.marked(p) {
			L.informedV.Set(int(p))
			L.countV++
			list[k] = list[len(list)-1]
			list = list[:len(list)-1]
			continue // re-examine the swapped-in entry
		}
		k++
	}
	L.uninfV = list
}

// pickupLane is pass 2 for lane t: agents on a vertex informed in a
// previous or this round become informed (see pickupAgents).
func (v *BatchedVisitExchange) pickupLane(t int) {
	L := &v.lanes[t]
	pos := v.walks.Lane(t)
	if L.countA == len(pos) {
		return
	}
	L.countA = pickupAgents(L.informedA, L.countA, L.informedV, pos)
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

	activeIDs []int
	budget    budget
	laneFn    func(shard, lo, hi int)
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
	m.laneFn = m.laneShard
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

func (m *BatchedMeetExchange) setBudget(b budget) { m.budget = b }

// Round returns the number of Step calls so far.
func (m *BatchedMeetExchange) Round() int { return m.walks.Round() }

// Step implements LaneProcess: the walk step and the meeting pass each
// do one unit of work per (active lane, agent).
func (m *BatchedMeetExchange) Step(active []bool) {
	m.activeIDs = activeLanes(m.activeIDs[:0], active, len(m.lanes))
	shards := m.budget.For(len(m.activeIDs) * m.walks.N())
	m.walks.SetShards(shards)
	m.walks.Step(active)
	if m.observe != nil {
		observeMoves(m.observe, m.walks)
	}
	par.DoN(shards, len(m.activeIDs), m.laneFn)
}

// laneShard runs the meeting pass for active lanes [lo, hi).
func (m *BatchedMeetExchange) laneShard(_, lo, hi int) {
	for _, t := range m.activeIDs[lo:hi] {
		m.stepLane(t)
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

// activeLanes appends the indices of active lanes (all k when active is
// nil) to dst and returns it.
func activeLanes(dst []int, active []bool, k int) []int {
	for t := 0; t < k; t++ {
		if active == nil || active[t] {
			dst = append(dst, t)
		}
	}
	return dst
}
