package core

import (
	"fmt"

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
	// included. Only single trials take one; it changes no draw or
	// outcome.
	Observer MoveObserver
}

// NewPush builds one push trial with the rumor placed on s in round zero:
// the one-lane view of NewBatchedPush, push's only implementation. It
// consumes exactly one value from rng (the protocol's stream seed).
func NewPush(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushOptions) (Process, error) {
	p, err := NewBatchedPush(g, s, []*xrand.RNG{rng}, opts)
	if err != nil {
		return nil, err
	}
	return newLaneView(p), nil
}

// NewPushPull builds one push-pull trial with the rumor placed on s in
// round zero: the one-lane view of NewBatchedPushPull, push-pull's only
// implementation. It consumes exactly one value from rng (the protocol's
// stream seed).
func NewPushPull(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushPullOptions) (Process, error) {
	p, err := NewBatchedPushPull(g, s, []*xrand.RNG{rng}, opts)
	if err != nil {
		return nil, err
	}
	return newLaneView(p), nil
}

// BatchedCall is the call model of Section 3 for K trials in fused
// lockstep: in every round, vertices call a uniform random neighbor. It is
// both call protocols, fixed per bundle by its constructor. Push
// (NewBatchedPush) lets only the vertices informed before the round call,
// and a call informs its target. Push-pull (NewBatchedPushPull, Karp et
// al.) lets every vertex call, and if exactly one endpoint of a call was
// informed before the round, the other becomes informed. Messages count
// one call per caller per round: the informed vertices for push, every
// non-isolated vertex for push-pull (an isolated vertex has nobody to
// call).
//
// A push-pull round evaluated from every vertex resolves each vertex's
// call and keeps its transfer in one pass per lane (collectExchangeDense),
// with nothing materialized between the draw and the collect. A lane
// whose cut has a small side skips the every-vertex
// pass and resolves only the calls across the cut — push always does, its
// every-caller pass being its informed side — and after two stagnant
// rounds a lane enters boundary mode, where only the vertices whose call
// can transfer the rumor call (see callLane and boundary.go): on the
// double star that turns the Ω(n) bridge-crossing wait from Θ(n) work per
// round into Θ(1), on the star push's coupon-collector tail likewise.
type BatchedCall struct {
	g       *graph.Graph
	src     graph.Vertex
	pull    bool // push-pull; push when false
	seeds   []uint64
	failTh  uint64
	sampler neighborSampler
	callers int64
	lanes   []callLane
	observe MoveObserver // one-lane push-pull bundles only

	// forceSide, when set (tests only), replaces pickSide's choice in
	// every non-boundary round of every lane: each side is exact on each
	// such round, so a forced run pins one path through all regimes.
	forceSide side

	round int
}

var _ LaneProcess = (*BatchedCall)(nil)

// NewBatchedPush builds a K = len(rngs) lane push bundle. Lane t consumes
// exactly one value from rngs[t] (its stream seed), so lane t of any
// bundle replays the one-lane trial on the same RNG bit for bit.
func NewBatchedPush(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts PushOptions) (*BatchedCall, error) {
	return newBatchedCall(g, s, rngs, false, opts.FailureProb, nil)
}

// NewBatchedPushPull builds a K = len(rngs) lane push-pull bundle. Lane t
// consumes exactly one value from rngs[t] (its stream seed), so lane t of
// any bundle replays the one-lane trial on the same RNG bit for bit. An
// Observer needs K = 1.
func NewBatchedPushPull(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts PushPullOptions) (*BatchedCall, error) {
	return newBatchedCall(g, s, rngs, true, opts.FailureProb, opts.Observer)
}

func newBatchedCall(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, pull bool, failureProb float64, observe MoveObserver) (*BatchedCall, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if failureProb < 0 || failureProb >= 1 {
		return nil, fmt.Errorf("core: FailureProb must be in [0,1), got %g", failureProb)
	}
	if observe != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	p := &BatchedCall{
		g:       g,
		src:     s,
		pull:    pull,
		seeds:   make([]uint64, len(rngs)),
		failTh:  xrand.BernoulliThreshold(failureProb),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]callLane, len(rngs)),
		observe: observe,
	}
	for t, rng := range rngs {
		p.seeds[t] = rng.Uint64()
		p.lanes[t].init(g, s, pull)
	}
	return p, nil
}

// Name implements LaneProcess.
func (p *BatchedCall) Name() string {
	if p.pull {
		return "push-pull"
	}
	return "push"
}

// K implements LaneProcess.
func (p *BatchedCall) K() int { return len(p.lanes) }

// Source implements LaneProcess.
func (p *BatchedCall) Source() graph.Vertex { return p.src }

// LaneDone implements LaneProcess.
func (p *BatchedCall) LaneDone(t int) bool { return p.lanes[t].count == p.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (p *BatchedCall) LaneInformedCount(t int) int { return p.lanes[t].count }

// LaneMessages implements LaneProcess.
func (p *BatchedCall) LaneMessages(t int) int64 { return p.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess: the call protocols have no
// agents.
func (p *BatchedCall) LaneAllAgentsInformed(int) bool { return false }

// Round returns the number of rounds the bundle has stepped.
func (p *BatchedCall) Round() int { return p.round }

// Step implements LaneProcess: each active lane's round, then the
// observer's replay of the round's calls. A lane's round settles its side,
// counts the round's calls, collects the transfers against the pre-round
// informed state, then commits. A vertex informed during round t neither
// calls (in push) nor passes the rumor on until round t+1, exactly as
// Section 3 specifies.
func (p *BatchedCall) Step(active []bool) {
	p.round++
	for t := range p.lanes {
		if active != nil && !active[t] {
			continue
		}
		L := &p.lanes[t]
		L.plan(p.g, p.forceSide)
		if p.pull {
			L.messages += p.callers // every non-isolated vertex calls a neighbor
		} else {
			L.messages += int64(L.count) // every informed vertex calls
		}
		L.collect(p.g, &p.sampler, p.seeds[t], uint64(p.round), p.failTh)
		L.commit(p.g)
	}
	if p.observe != nil {
		p.observeCalls()
	}
}

// observeCalls reports a one-lane bundle's round to its observer: every
// non-isolated vertex's call, in vertex order, failed ones included. A
// call is a pure function of (seed, vertex, round), so it is replayed here
// whichever side, or boundary mode, the round was evaluated from.
func (p *BatchedCall) observeCalls() {
	round := uint64(p.round)
	for u := range p.g.N() {
		if v := p.sampler.call(p.seeds[0], graph.Vertex(u), round, 0); v >= 0 {
			p.observe(p.round, graph.Vertex(u), v)
		}
	}
}
