package core

import (
	"fmt"

	"rumor/internal/agents"
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// PushOptions configures the push protocol.
type PushOptions struct {
	// FailureProb is the probability that a transmission silently fails,
	// modeling the random link failures of Elsässer & Sauerwald [22] that
	// the paper's Lemma 4(a) relies on. Zero means reliable links.
	FailureProb float64
}

// PushPullOptions configures the push-pull protocol.
type PushPullOptions struct {
	// FailureProb is the probability that an exchange silently fails.
	FailureProb float64
	// Observer, if non-nil, receives every neighbor call, failed ones
	// included. It changes no draw or outcome.
	Observer MoveObserver
}

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
	// not its push-pull calls.
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

// NewPush builds one push trial with the rumor placed on s in round zero:
// in every round each vertex informed before the round calls a uniform
// random neighbor and informs it. It consumes exactly one value from rng
// (the protocol's stream seed).
func NewPush(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushOptions) (Process, error) {
	return newTrial(g, s, rng, halves{calls: true, failureProb: opts.FailureProb, memory: true})
}

// NewPushPull builds one push-pull trial (Karp et al.) with the rumor
// placed on s in round zero: in every round every vertex calls a uniform
// random neighbor, and if exactly one endpoint of a call was informed
// before the round, the other becomes informed. It consumes exactly one
// value from rng (the protocol's stream seed).
func NewPushPull(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushPullOptions) (Process, error) {
	return newTrial(g, s, rng, halves{calls: true, pull: true, failureProb: opts.FailureProb, memory: true, observe: opts.Observer})
}

// NewVisitExchange builds one visit-exchange trial: in round zero the
// agents standing on s become informed; in each later round all agents
// take one random-walk step, every agent informed in a previous round
// informs the vertex it visits, and every agent standing on a vertex
// informed in a previous or the current round becomes informed.
// Visit-exchange does not require lazy walks (vertices hold the rumor
// across parity classes), so LazyAuto resolves to simple walks. It
// consumes rng alone, through the walk system's seed.
func NewVisitExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	return newTrial(g, s, rng, halves{agents: &opts, memory: true, observe: opts.Observer})
}

// NewMeetExchange builds one meet-exchange trial: the rumor lives on
// agents only. In round zero the agents standing on s become informed; in
// each later round all agents take one random-walk step, and every agent
// standing on a vertex with an agent informed in a previous round becomes
// informed. If no agent starts on the source, the first agent(s) to visit
// it become informed, after which the source goes silent. On bipartite
// graphs two walks can have permanently disjoint parities, so LazyAuto
// resolves to lazy walks there, the paper's convention; T_meetx would
// otherwise be infinite with positive probability. It consumes rng alone,
// through the walk system's seed.
func NewMeetExchange(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	return newTrial(g, s, rng, halves{agents: &opts, observe: opts.Observer})
}

// NewHybrid builds one trial of push-pull and visit-exchange run
// simultaneously over a shared informed-vertex set. It realizes the
// paper's suggestion (Section 1) that "agent-based information
// dissemination, separately or in combination with push-pull, can
// significantly improve the broadcast time": a vertex informed by either
// mechanism counts, and on every Fig. 1 family the hybrid inherits the
// faster one — logarithmic on the star and double star (agents), and on
// the heavy and Siamese trees (push-pull). The Observer sees the agent
// traversals only, not the calls. It consumes rng alone — the walk-system
// seed, then the exchange stream seed.
func NewHybrid(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts AgentOptions) (Process, error) {
	return newTrial(g, s, rng, halves{calls: true, pull: true, agents: &opts, memory: true, observe: opts.Observer})
}

// halves says which halves a trial has and how each is set. Only the five
// constructors' combinations are built: calls beside memory-less agents
// would need a rule the paper does not give.
type halves struct {
	calls, pull bool
	failureProb float64
	agents      *AgentOptions // nil: no agent half
	memory      bool          // vertices keep the rumor: every protocol but meet-exchange
	observe     MoveObserver
}

// trial is one trial of any protocol of Section 3: an optional call half
// (push, and push-pull with the pull direction on), an optional agent half
// (visit-exchange, and meet-exchange without vertex memory), or both (the
// hybrid), informing one shared set of vertices.
//
// The call half is the call model: each round resolves the calls of its
// callers — the informed vertices for push, every non-isolated vertex
// otherwise — and collects their transfers against the pre-round informed
// set. A vertex's call is a pure function of (seed, vertex, round), so a
// round need not draw every caller (boundary.go): a push-pull round
// evaluated from every vertex resolves each call and keeps its transfer in
// one pass (collectExchangeDense); a round whose cut has a small side
// resolves only the calls across the cut — push always does, its
// every-caller pass being its informed side — and after two stagnant
// rounds the trial enters boundary mode, where only the vertices whose
// call can transfer the rumor call: on the double star that turns the
// Ω(n) bridge-crossing wait from Θ(n) work per round into Θ(1), on the
// star push's coupon-collector tail likewise. Calls are charged one
// message per caller.
//
// The agent half is one walk system and the informed agents, one message
// per agent step. Informed agents deposit the rumor on the vertices they
// landed on, then uninformed agents on an informed vertex (old or new)
// pick it up (pickupAgents). Without calls the deposit is a direct mark,
// one OR per informed agent (markDeposits), counting the bits it newly
// sets with memory; with calls it is collected (collectDeposits), because
// the one commit also keeps Σ deg(I) and the boundary lists, so deposits
// move the cut and retire callers exactly as call finds do. Without
// memory (meet-exchange) the vertex set is transient: while no agent is
// informed it holds the source, and once one is, it is cleared every
// round and rebuilt by the mark. With churn, agents the walk step
// respawned are fresh and uninformed: a round clears their informed bits
// before its informing passes.
//
// The observer sees the agent traversals when there are agents, and the
// calls otherwise.
type trial struct {
	callState // the informed-vertex set of both halves; the call half's sides and boundary
	g         *graph.Graph
	src       graph.Vertex
	memory    bool // vertices keep the rumor: every protocol but meet-exchange
	observe   MoveObserver
	messages  int64
	round     int

	// The call half, when calls is set.
	calls   bool
	seed    uint64 // the exchange stream seed, drawn after any walk seed
	failTh  uint64
	sampler neighborSampler
	callers int64
	// forceSide, when set (tests only), replaces pickSide's choice in
	// every non-boundary round: each side is exact on each such round, so
	// a forced run pins one path through all regimes.
	forceSide side

	// The agent half, when walks is non-nil.
	walks     *agents.Walks
	informedA *bitset.Set
	countA    int
}

// newTrial validates the source and the failure probability, then draws
// the walk seed when there are agents and the exchange seed when there
// are calls, in that order.
func newTrial(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, h halves) (Process, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if h.failureProb < 0 || h.failureProb >= 1 {
		return nil, fmt.Errorf("core: FailureProb must be in [0,1), got %g", h.failureProb)
	}
	t := &trial{g: g, src: s, memory: h.memory, observe: h.observe, calls: h.calls}
	t.pull = h.pull
	t.informed = bitset.New(g.N())
	if h.agents != nil {
		w, err := agents.New(g, h.agents.walkConfig(g, !h.memory), rng)
		if err != nil {
			name := t.Name() // visit- or meet-exchange: no walks yet
			if h.calls {
				name = "hybrid"
			}
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		t.walks = w
		t.informedA, t.countA = informedOn(w.Positions(), s)
	}
	if h.calls {
		t.seed = rng.Uint64()
		t.failTh = xrand.BernoulliThreshold(h.failureProb)
		t.sampler = newNeighborSampler(g)
		t.callers = callerCount(g)
	}
	// Without memory the source holds the rumor only until an agent does:
	// an informed agent implies a silent source.
	if t.memory || t.countA == 0 {
		t.informed.Set(int(s))
		t.count = 1
		t.degInf = int64(g.Degree(s))
	}
	return t, nil
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
func (t *trial) Name() string {
	switch {
	case t.calls && t.walks != nil:
		return "ppull+visitx"
	case t.pull:
		return "push-pull"
	case t.calls:
		return "push"
	case t.memory:
		return "visit-exchange"
	}
	return "meet-exchange"
}

// Round implements Process.
func (t *trial) Round() int { return t.round }

// Done implements Process: every vertex informed with memory, every agent
// without.
func (t *trial) Done() bool {
	if !t.memory {
		return t.allAgentsInformed()
	}
	return t.count == t.g.N()
}

// InformedCount implements Process: vertices with memory, agents without.
func (t *trial) InformedCount() int {
	if !t.memory {
		return t.countA
	}
	return t.count
}

// Messages implements Process.
func (t *trial) Messages() int64 { return t.messages }

func (t *trial) allAgentsInformed() bool { return t.walks != nil && t.countA == t.walks.N() }
func (t *trial) source() graph.Vertex    { return t.src }

// Step implements Process, each phase only when its half is present: the
// walk step and the move observer; the call round's side and its collect
// against the pre-round informed set; the deposit of agents informed in a
// previous round, churn replacements forgetting the rumor first; the
// commit of both halves' finds; the call observer's replay; the agent
// pickup. A vertex informed in round t neither calls (in push) nor passes
// the rumor on until round t+1, exactly as Section 3 specifies. Calls are
// counter-based pure functions of (seed, vertex, round), so resolving
// them after the walk step is the same as resolving them before it.
func (t *trial) Step() {
	t.round++
	if t.walks != nil {
		t.walks.Step()
		if t.observe != nil {
			observeMoves(t.observe, t.walks)
		}
		t.messages += int64(t.walks.N())
	}
	if t.calls {
		t.plan(t.g, t.forceSide)
		if t.pull {
			t.messages += t.callers // every non-isolated vertex calls a neighbor
		} else {
			t.messages += int64(t.count) // every informed vertex calls
		}
		t.collect(t.g, &t.sampler, t.seed, uint64(t.round), t.failTh)
	}
	if t.walks != nil {
		t.deposit()
	}
	if t.calls {
		t.commit(t.g)
		if t.observe != nil && t.walks == nil {
			t.observeCalls()
		}
	}
	// Without memory or informed agents, the set holds the source or,
	// once churn has lost the rumor, nothing.
	if t.walks != nil && t.countA < t.walks.N() && (t.memory || t.countA > 0 || t.informed.Test(int(t.src))) {
		t.countA = pickupAgents(t.informedA, t.countA, t.informed, t.walks.Positions())
	}
}

// deposit forgets the agents churn respawned, then lets every informed
// agent inform the vertex it landed on: marked directly without calls,
// collected for the commit with them.
func (t *trial) deposit() {
	pos := t.walks.Positions()
	if !t.memory && t.countA > 0 {
		// The source is silent: the set is rebuilt from the agents.
		clear(t.informed.Words())
	}
	t.countA = forgetRespawned(t.informedA, t.countA, t.walks.Respawned())
	switch {
	case t.countA == 0:
	case !t.memory:
		markDeposits(t.informedA, t.countA, t.informed.Words(), pos)
	case t.count == t.g.N():
	case t.calls:
		t.pending = collectDeposits(t.informedA, t.countA, t.informed, pos, t.pending)
	default:
		t.count += markDeposits(t.informedA, t.countA, t.informed.Words(), pos)
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

// observeCalls reports the round to the observer: every non-isolated
// vertex's call, in vertex order, failed ones included. A call is a pure
// function of (seed, vertex, round), so it is replayed here whichever
// side, or boundary mode, the round was evaluated from.
func (t *trial) observeCalls() {
	round := uint64(t.round)
	for u := range t.g.N() {
		if v := t.sampler.call(t.seed, graph.Vertex(u), round, 0); v >= 0 {
			t.observe(t.round, graph.Vertex(u), v)
		}
	}
}

// observeMoves reports the agent traversals of the walk system's latest
// round to obs, in agent-id order. Agents replaced by churn that round did
// not traverse an edge and are skipped.
func observeMoves(obs MoveObserver, w *agents.Walks) {
	prev, pos, resp := w.Prev(), w.Positions(), w.Respawned()
	for i, to := range pos {
		if len(resp) > 0 && resp[0] == i {
			resp = resp[1:]
			continue
		}
		obs(w.Round(), prev[i], to)
	}
}
