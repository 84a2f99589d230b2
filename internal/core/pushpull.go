package core

import (
	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// PushPullOptions configures the push-pull protocol.
type PushPullOptions struct {
	// FailureProb is the probability that an exchange silently fails.
	FailureProb float64
	// Observer, if non-nil, receives every neighbor call; it forces the
	// serial all-vertices path but changes no random draw or outcome.
	Observer MoveObserver
}

// PushPull is the bidirectional rumor-spreading protocol of Karp et al.
// (Section 3): in every round, every vertex (informed or not) samples a
// uniform random neighbor, and if exactly one endpoint of the call was
// informed before the round, the other becomes informed.
//
// Vertex u's round-t draws come from the stream keyed (seed, u, t); shards
// draw concurrently and the newly informed set is committed in a serial
// merge, so results are bit-identical for a given seed at any GOMAXPROCS.
//
// Counter-based streams let the engine restrict draws to "boundary"
// vertices — those with a neighbor in the opposite informed state — since
// any other vertex's exchange provably transfers nothing and skipping its
// draw shifts nobody else's randomness. The protocol starts dense (all n
// vertices draw) and switches to boundary mode on the first round that
// informs nobody: on the double star that turns the Ω(n) bridge-crossing
// wait from Θ(n) work per round into Θ(1). Messages count one call per
// non-isolated vertex per round — an isolated vertex has no neighbor to
// call (its exchange draw is the no-call marker -1), so it is not charged.
type PushPull struct {
	g        *graph.Graph
	src      graph.Vertex
	opts     PushPullOptions
	seed     uint64
	failTh   uint64
	sampler  neighborSampler
	informed *bitset.Set
	callers  int64 // non-isolated vertices: one message each per round

	// Boundary bookkeeping (see boundary.go), built lazily after repeated
	// stagnant rounds (never in observer mode).
	boundary bool
	stagnant int
	bnd      exchangeBoundary

	budget   budget
	targets  []graph.Vertex // per-slot draw results; -1 marks a failure
	srcs     []graph.Vertex // per-slot sender (boundary mode)
	pending  []graph.Vertex
	denseFn  func(shard, lo, hi int)
	activeFn func(shard, lo, hi int)
	count    int
	round    int
	messages int64
}

var _ Process = (*PushPull)(nil)

// NewPushPull builds a push-pull process with the rumor on s in round zero.
// It consumes exactly one value from rng (the protocol's stream seed).
func NewPushPull(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushPullOptions) (*PushPull, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.FailureProb < 0 || opts.FailureProb >= 1 {
		return nil, errFailureProb(opts.FailureProb)
	}
	p := &PushPull{
		g:        g,
		src:      s,
		opts:     opts,
		seed:     rng.Uint64(),
		failTh:   xrand.BernoulliThreshold(opts.FailureProb),
		sampler:  newNeighborSampler(g),
		informed: bitset.New(g.N()),
		callers:  callerCount(g),
		count:    1,
	}
	p.denseFn = p.drawDenseShard
	p.activeFn = p.drawActiveShard
	p.informed.Set(int(s))
	return p, nil
}

// enterBoundary builds the boundary structures from the current informed
// set (see exchangeBoundary.build): one O(n + Σ deg(informed)) pass, paid
// once.
func (p *PushPull) enterBoundary() {
	p.bnd.build(p.g, p.informed)
	if p.srcs == nil {
		p.srcs = make([]graph.Vertex, p.g.N())
	}
	p.boundary = true
}

// Name implements Process.
func (p *PushPull) Name() string { return "push-pull" }

// Round implements Process.
func (p *PushPull) Round() int { return p.round }

// Done implements Process.
func (p *PushPull) Done() bool { return p.count == p.g.N() }

// InformedCount implements Process.
func (p *PushPull) InformedCount() int { return p.count }

// Messages implements Process.
func (p *PushPull) Messages() int64 { return p.messages }

// Source implements the sourced interface.
func (p *PushPull) Source() graph.Vertex { return p.src }

func (p *PushPull) setBudget(b budget) { p.budget = b }

// Step implements Process. Informedness is evaluated against the state
// before the round: a vertex informed during round t neither pushes nor can
// be pulled from until round t+1, exactly as Section 3 specifies.
func (p *PushPull) Step() {
	p.round++
	p.pending = p.pending[:0]
	n := p.g.N()
	p.messages += p.callers // every non-isolated vertex calls a neighbor
	switch {
	case p.opts.Observer != nil:
		p.stepSerial(n)
	case p.boundary:
		m := len(p.bnd.active)
		if m == 0 {
			return
		}
		par.DoN(p.budget.For(m), m, p.activeFn)
		// Collect against the pre-round informed state (the active list
		// itself mutates only in the commit below, hence srcs).
		p.pending = collectExchangeActive(p.informed, p.srcs[:m], p.targets[:m], p.pending)
	default:
		if p.targets == nil {
			p.targets = make([]graph.Vertex, n)
		}
		par.DoN(p.budget.For(n), n, p.denseFn)
		p.pending = collectExchangeDense(p.informed, p.targets[:n], p.pending)
	}
	// Commit.
	countBefore := p.count
	p.count = commitExchange(p.g, p.informed, &p.bnd, p.boundary, p.pending, p.count, nil)
	if !p.boundary && p.opts.Observer == nil {
		if p.count != countBefore {
			p.stagnant = 0
		} else if !p.Done() {
			// Consecutive stagnant rounds signal a waiting phase (e.g.
			// the double-star bridge); require two in a row before paying
			// the O(M) boundary build so ordinary finishing tails skip it.
			if p.stagnant++; p.stagnant >= boundaryStagnantRounds {
				p.enterBoundary()
			}
		}
	}
}

// drawDenseShard draws the round's neighbor choice (and failure coin) for
// vertices [lo, hi) into per-vertex scratch slots. Vertex ids are
// consecutive here, so the stream base advances incrementally (one add per
// vertex) and the packed-index sampling is inlined, exactly as in the walk
// inner loop.
func (p *PushPull) drawDenseShard(_, lo, hi int) {
	round := uint64(p.round)
	idx, nbrs := p.sampler.idx, p.sampler.nbrs
	if idx == nil || p.failTh != 0 {
		for u := lo; u < hi; u++ {
			s := xrand.NewStream(p.seed, uint64(u), round)
			v := p.sampler.sample(graph.Vertex(u), &s)
			if p.failTh != 0 && s.Uint64() < p.failTh {
				v = -1
			}
			p.targets[u] = v
		}
		return
	}
	targets := p.targets[:hi]
	base := xrand.MixBase(p.seed, uint64(lo), round)
	for u := lo; u < hi; u++ {
		word := idx[u]
		if graph.WalkDegreeOne(word) {
			targets[u] = graph.WalkOnlyNeighbor(word, nbrs)
		} else if graph.WalkDegreeZero(word) {
			targets[u] = -1 // isolated vertex: no call
		} else {
			targets[u] = graph.WalkTarget(word, xrand.Mix(base), nbrs)
		}
		base += xrand.UnitStride
	}
}

// drawActiveShard draws for active-list slots [lo, hi), recording the
// sender alongside because the active list mutates during the commit
// phase.
func (p *PushPull) drawActiveShard(_, lo, hi int) {
	drawExchangeActive(&p.sampler, p.seed, p.bnd.active[lo:hi], p.srcs[lo:hi], p.targets[lo:hi], uint64(p.round), p.failTh)
}

// stepSerial draws every vertex's stream one at a time so the observer
// sees all n neighbor calls, in vertex order.
func (p *PushPull) stepSerial(n int) {
	round := uint64(p.round)
	for u := 0; u < n; u++ {
		s := xrand.NewStream(p.seed, uint64(u), round)
		v := p.sampler.sample(graph.Vertex(u), &s)
		if v < 0 {
			continue // isolated vertex: no call to observe
		}
		p.opts.Observer(p.round, graph.Vertex(u), v)
		if p.failTh != 0 && s.Uint64() < p.failTh {
			continue
		}
		iu, iv := p.informed.Test(u), p.informed.Test(int(v))
		switch {
		case iu && !iv:
			p.pending = append(p.pending, v)
		case !iu && iv:
			p.pending = append(p.pending, graph.Vertex(u))
		}
	}
}
