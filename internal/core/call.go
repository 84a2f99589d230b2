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
	// included. It changes no draw or outcome.
	Observer MoveObserver
}

// NewPush builds one push trial with the rumor placed on s in round zero.
// It consumes exactly one value from rng (the protocol's stream seed).
func NewPush(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushOptions) (Process, error) {
	return newCall(g, s, rng, false, opts.FailureProb, nil)
}

// NewPushPull builds one push-pull trial with the rumor placed on s in
// round zero. It consumes exactly one value from rng (the protocol's
// stream seed).
func NewPushPull(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushPullOptions) (Process, error) {
	return newCall(g, s, rng, true, opts.FailureProb, opts.Observer)
}

// Call is one trial of the call model of Section 3: in every round,
// vertices call a uniform random neighbor. It is both call protocols,
// fixed by its constructor. Push (NewPush) lets only the vertices informed
// before the round call, and a call informs its target. Push-pull
// (NewPushPull, Karp et al.) lets every vertex call, and if exactly one
// endpoint of a call was informed before the round, the other becomes
// informed. Messages count one call per caller per round: the informed
// vertices for push, every non-isolated vertex for push-pull (an isolated
// vertex has nobody to call).
//
// A push-pull round evaluated from every vertex resolves each vertex's
// call and keeps its transfer in one pass (collectExchangeDense), with
// nothing materialized between the draw and the collect. A round whose
// cut has a small side skips the every-vertex pass and resolves only the
// calls across the cut — push always does, its every-caller pass being
// its informed side — and after two stagnant rounds the trial enters
// boundary mode, where only the vertices whose call can transfer the
// rumor call (see callState and boundary.go): on the double star that
// turns the Ω(n) bridge-crossing wait from Θ(n) work per round into Θ(1),
// on the star push's coupon-collector tail likewise.
type Call struct {
	callState
	g       *graph.Graph
	src     graph.Vertex
	seed    uint64
	failTh  uint64
	sampler neighborSampler
	callers int64
	observe MoveObserver // push-pull only

	// forceSide, when set (tests only), replaces pickSide's choice in
	// every non-boundary round: each side is exact on each such round, so
	// a forced run pins one path through all regimes.
	forceSide side

	round int
}

func newCall(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, pull bool, failureProb float64, observe MoveObserver) (Process, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if failureProb < 0 || failureProb >= 1 {
		return nil, fmt.Errorf("core: FailureProb must be in [0,1), got %g", failureProb)
	}
	p := &Call{
		g:       g,
		src:     s,
		seed:    rng.Uint64(),
		failTh:  xrand.BernoulliThreshold(failureProb),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		observe: observe,
	}
	p.init(g, s, pull)
	return p, nil
}

// Name implements Process.
func (p *Call) Name() string {
	if p.pull {
		return "push-pull"
	}
	return "push"
}

// Round implements Process.
func (p *Call) Round() int { return p.round }

// Done implements Process: every vertex is informed.
func (p *Call) Done() bool { return p.count == p.g.N() }

// InformedCount implements Process (vertices).
func (p *Call) InformedCount() int { return p.count }

// Messages implements Process.
func (p *Call) Messages() int64 { return p.messages }

func (p *Call) allAgentsInformed() bool { return false }
func (p *Call) source() graph.Vertex    { return p.src }

// Step implements Process: the round, then the observer's replay of its
// calls. A round settles its side, counts its calls, collects the
// transfers against the pre-round informed state, then commits. A vertex
// informed during round t neither calls (in push) nor passes the rumor on
// until round t+1, exactly as Section 3 specifies.
func (p *Call) Step() {
	p.round++
	p.plan(p.g, p.forceSide)
	if p.pull {
		p.messages += p.callers // every non-isolated vertex calls a neighbor
	} else {
		p.messages += int64(p.count) // every informed vertex calls
	}
	p.collect(p.g, &p.sampler, p.seed, uint64(p.round), p.failTh)
	p.commit(p.g)
	if p.observe != nil {
		p.observeCalls()
	}
}

// observeCalls reports the round to the observer: every non-isolated
// vertex's call, in vertex order, failed ones included. A call is a pure
// function of (seed, vertex, round), so it is replayed here whichever
// side, or boundary mode, the round was evaluated from.
func (p *Call) observeCalls() {
	round := uint64(p.round)
	for u := range p.g.N() {
		if v := p.sampler.call(p.seed, graph.Vertex(u), round, 0); v >= 0 {
			p.observe(p.round, graph.Vertex(u), v)
		}
	}
}
