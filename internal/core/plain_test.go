package core

import (
	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Plain reference rounds of the call protocols and of the agent
// protocols, kept in test code as the equivalence suites' reference. Every caller's call
// resolves through neighborSampler.call, the round collects its transfers
// against the pre-round informed set and then commits them; agents deposit
// and pick up the rumor one agent at a time, in id order. There is no
// boundary mode, no side of the cut, no dense sweep and no word scan:
// every path the engine takes must reproduce these rounds bit for bit. A
// reference is a Process, so RunMany runs it like any trial.

// plainRef is one trial of push (pull false), push-pull (pull true), the
// hybrid (pull true, walks set) or visit-exchange (walks set, noCalls).
type plainRef struct {
	name    string
	g       *graph.Graph
	src     graph.Vertex
	pull    bool // every non-isolated vertex calls, and a call carries both ways
	noCalls bool // visit-exchange: agents alone inform
	seed    uint64
	failTh  uint64
	sampler neighborSampler
	callers int64 // non-isolated vertices

	informed *bitset.Set
	count    int
	pending  []graph.Vertex

	walks     *agents.Walks // agent references only
	informedA *bitset.Set
	countA    int

	round    int
	messages int64
}

func newPlainRef(name string, g *graph.Graph, s graph.Vertex, pull bool, f float64) *plainRef {
	r := &plainRef{
		name: name, g: g, src: s, pull: pull,
		failTh:   xrand.BernoulliThreshold(f),
		sampler:  newNeighborSampler(g),
		informed: bitset.New(g.N()),
		count:    1,
	}
	for u := range g.N() {
		if g.Degree(graph.Vertex(u)) > 0 {
			r.callers++
		}
	}
	r.informed.Set(int(s))
	return r
}

// plainPush is one push trial: each vertex informed before the round calls.
func plainPush(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, f float64) Process {
	r := newPlainRef("push", g, s, false, f)
	r.seed = rng.Uint64()
	return r
}

// plainPushPull is one push-pull trial: every non-isolated vertex calls.
func plainPushPull(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, f float64) Process {
	r := newPlainRef("push-pull", g, s, true, f)
	r.seed = rng.Uint64()
	return r
}

// plainHybrid is one hybrid trial: the push-pull round's calls, then a
// walk step with visit-exchange deposits and pickups. It draws
// the walk seed from rng first, then the exchange seed.
func plainHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, o AgentOptions) (Process, error) {
	r, err := newPlainAgents("ppull+visitx", g, s, rng, o)
	if err != nil {
		return nil, err
	}
	r.seed = rng.Uint64()
	return r, nil
}

// plainVisitExchange is one visit-exchange trial: the hybrid's agent half
// without its calls.
func plainVisitExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, o AgentOptions) (Process, error) {
	r, err := newPlainAgents("visit-exchange", g, s, rng, o)
	if err != nil {
		return nil, err
	}
	r.noCalls = true
	return r, nil
}

// newPlainAgents builds a reference with a walk system drawn from
// rng, every agent on s informed.
func newPlainAgents(name string, g *graph.Graph, s graph.Vertex, rng *xrand.RNG, o AgentOptions) (*plainRef, error) {
	w, err := agents.New(g, o.walkConfig(g, false), rng)
	if err != nil {
		return nil, err
	}
	r := newPlainRef(name, g, s, true, 0)
	r.walks = w
	r.informedA, r.countA = informedOn(w.Positions(), s)
	return r, nil
}

func (r *plainRef) Name() string            { return r.name }
func (r *plainRef) source() graph.Vertex    { return r.src }
func (r *plainRef) Round() int              { return r.round }
func (r *plainRef) Done() bool              { return r.count == r.g.N() }
func (r *plainRef) InformedCount() int      { return r.count }
func (r *plainRef) Messages() int64         { return r.messages }
func (r *plainRef) allAgentsInformed() bool { return r.walks != nil && r.countA == r.walks.N() }

func (r *plainRef) Step() {
	r.round++
	round := uint64(r.round)
	r.pending = r.pending[:0]
	if !r.noCalls {
		r.calls(round)
	}
	var pos []graph.Vertex
	if r.walks != nil {
		r.walks.Step()
		r.messages += int64(r.walks.N())
		pos = r.walks.Positions()
		for _, i := range r.walks.Respawned() {
			if r.informedA.Test(i) { // a fresh agent is uninformed
				r.informedA.Clear(i)
				r.countA--
			}
		}
		for i, p := range pos {
			if r.informedA.Test(i) && !r.informed.Test(int(p)) {
				r.pending = append(r.pending, p)
			}
		}
	}
	for _, v := range r.pending {
		if !r.informed.Test(int(v)) {
			r.informed.Set(int(v))
			r.count++
		}
	}
	for i, p := range pos {
		if !r.informedA.Test(i) && r.informed.Test(int(p)) {
			r.informedA.Set(i)
			r.countA++
		}
	}
}

// calls charges the round's calls and collects their transfers.
func (r *plainRef) calls(round uint64) {
	if r.pull {
		r.messages += r.callers
	} else {
		r.messages += int64(r.count)
	}
	for u := range r.g.N() {
		iu := r.informed.Test(u)
		if !iu && !r.pull {
			continue
		}
		v := r.sampler.call(r.seed, graph.Vertex(u), round, r.failTh)
		if v < 0 {
			continue
		}
		switch iv := r.informed.Test(int(v)); {
		case iu && !iv:
			r.pending = append(r.pending, v)
		case !iu && iv:
			r.pending = append(r.pending, graph.Vertex(u))
		}
	}
}

// plainMeet is one meet-exchange trial: agents alone hold the rumor. An
// uninformed agent is informed when it stands on a vertex with an agent
// informed before the round; while no agent has yet been informed, the
// source informs every agent visiting it, and it goes silent after the
// first round any agent stands on it.
type plainMeet struct {
	g            *graph.Graph
	src          graph.Vertex
	walks        *agents.Walks
	informedA    *bitset.Set
	countA       int
	sourceSilent bool
	messages     int64
}

// plainMeetExchange is one meet-exchange trial: per-agent meetings against
// the agents informed before the round, and an explicit source rule.
func plainMeetExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, o AgentOptions) (Process, error) {
	w, err := agents.New(g, o.walkConfig(g, true), rng)
	if err != nil {
		return nil, err
	}
	r := &plainMeet{g: g, src: s, walks: w}
	r.informedA, r.countA = informedOn(w.Positions(), s)
	r.sourceSilent = r.countA > 0
	return r, nil
}

func (r *plainMeet) Name() string            { return "meet-exchange" }
func (r *plainMeet) source() graph.Vertex    { return r.src }
func (r *plainMeet) Round() int              { return r.walks.Round() }
func (r *plainMeet) Done() bool              { return r.countA == r.walks.N() }
func (r *plainMeet) InformedCount() int      { return r.countA }
func (r *plainMeet) Messages() int64         { return r.messages }
func (r *plainMeet) allAgentsInformed() bool { return r.Done() }

func (r *plainMeet) Step() {
	r.walks.Step()
	r.messages += int64(r.walks.N())
	pos := r.walks.Positions()
	for _, i := range r.walks.Respawned() {
		if r.informedA.Test(i) { // a fresh agent is uninformed
			r.informedA.Clear(i)
			r.countA--
		}
	}
	hosts := map[graph.Vertex]bool{} // vertices hosting an agent informed before the round
	for i, p := range pos {
		if r.informedA.Test(i) {
			hosts[p] = true
		}
	}
	var newly []int
	visited := false
	for i, p := range pos {
		if p == r.src {
			visited = true
		}
		if !r.informedA.Test(i) && (hosts[p] || !r.sourceSilent && p == r.src) {
			newly = append(newly, i)
		}
	}
	if visited {
		r.sourceSilent = true
	}
	for _, i := range newly {
		r.informedA.Set(i)
		r.countA++
	}
}
