package core

import (
	"fmt"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// PushOptions configures the push protocol.
type PushOptions struct {
	// FailureProb is the probability that a transmission silently fails,
	// modeling the random link failures of Elsässer & Sauerwald [22] that
	// the paper's Lemma 4(a) relies on. Zero means reliable links.
	FailureProb float64
	// Observer, if non-nil, receives every neighbor call. Setting an
	// observer forces the serial all-senders path (callbacks arrive in
	// sender order, one per informed vertex) but does not change any
	// random draw or outcome.
	Observer MoveObserver
}

// Push is the classic randomized rumor-spreading protocol (Section 3): in
// every round, every vertex informed in a previous round samples a uniform
// random neighbor and informs it.
//
// The round is executed by the deterministic parallel engine: sender u's
// draws in round t come from the stream keyed (seed, u, t), shards draw
// concurrently, and newly informed vertices are committed in a serial
// merge — bit-identical results at any GOMAXPROCS.
//
// Because streams are counter-based, the engine may skip senders whose
// entire neighborhood is already informed: their sends provably cannot
// change state, and skipping their draws shifts nobody else's randomness.
// The protocol starts in a dense mode where every informed vertex draws —
// optimal while the rumor grows every round — and switches to boundary
// mode the first time a round informs nobody (the signature of the
// Ω(n log n) coupon-collector phases on stars), after which only informed
// vertices with an uninformed neighbor draw. On the star this turns
// Θ(n) work per waiting round into Θ(1). Messages always count one send
// per informed vertex, as the protocol defines.
type Push struct {
	g        *graph.Graph
	src      graph.Vertex
	opts     PushOptions
	seed     uint64
	failTh   uint64 // FailureProb as a raw-uint64 threshold
	sampler  neighborSampler
	informed *bitset.Set
	frontier []graph.Vertex // all informed vertices, in discovery order

	// Boundary bookkeeping (see boundary.go), built lazily after repeated
	// stagnant rounds (never in observer mode).
	boundary bool
	stagnant int
	bnd      pushBoundary

	budget   budget
	senders  []graph.Vertex // the slice drawShard iterates (frontier or active)
	targets  []graph.Vertex // per-sender draw results; -1 marks a failed send
	pending  []graph.Vertex
	drawFn   func(shard, lo, hi int)
	round    int
	messages int64
}

var _ Process = (*Push)(nil)

// NewPush builds a push process with the rumor placed on s in round zero.
// It consumes exactly one value from rng (the protocol's stream seed).
func NewPush(g *graph.Graph, s graph.Vertex, rng *xrand.RNG, opts PushOptions) (*Push, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.FailureProb < 0 || opts.FailureProb >= 1 {
		return nil, errFailureProb(opts.FailureProb)
	}
	p := &Push{
		g:        g,
		src:      s,
		opts:     opts,
		seed:     rng.Uint64(),
		failTh:   xrand.BernoulliThreshold(opts.FailureProb),
		sampler:  newNeighborSampler(g),
		informed: bitset.New(g.N()),
		frontier: make([]graph.Vertex, 0, g.N()),
	}
	p.drawFn = p.drawShard
	p.informed.Set(int(s))
	p.frontier = append(p.frontier, s)
	return p, nil
}

// informVertex commits v as informed. In boundary mode it also maintains
// the boundary-sender set (see pushBoundary.onInformed).
func (p *Push) informVertex(v graph.Vertex) {
	p.informed.Set(int(v))
	p.frontier = append(p.frontier, v)
	if p.boundary {
		p.bnd.onInformed(p.g, v)
	}
}

// Name implements Process.
func (p *Push) Name() string { return "push" }

// Round implements Process.
func (p *Push) Round() int { return p.round }

// Done implements Process.
func (p *Push) Done() bool { return len(p.frontier) == p.g.N() }

// InformedCount implements Process.
func (p *Push) InformedCount() int { return len(p.frontier) }

// Messages implements Process.
func (p *Push) Messages() int64 { return p.messages }

// Source implements the sourced interface.
func (p *Push) Source() graph.Vertex { return p.src }

func (p *Push) setBudget(b budget) { p.budget = b }

// Step implements Process. Only vertices informed in a previous round send;
// vertices informed during this round start sending next round.
func (p *Push) Step() {
	p.round++
	// Every informed vertex sends (and is counted), but only senders that
	// can change state need to draw.
	p.messages += int64(len(p.frontier))
	if p.opts.Observer != nil {
		p.stepSerial()
		return
	}
	if p.boundary {
		p.senders = p.bnd.active
	} else {
		p.senders = p.frontier
	}
	m := len(p.senders) // snapshot: commits below may mutate active
	if m == 0 {
		return
	}
	if p.targets == nil {
		p.targets = make([]graph.Vertex, p.g.N())
	}
	par.DoN(p.budget.For(m), m, p.drawFn)
	// Serial merge: commit in draw order. informVertex sets the informed
	// bit, so duplicate targets commit once.
	before := len(p.frontier)
	for _, v := range p.targets[:m] {
		if v >= 0 && !p.informed.Test(int(v)) {
			p.informVertex(v)
		}
	}
	if !p.boundary {
		if len(p.frontier) != before {
			p.stagnant = 0
		} else if !p.Done() {
			// Consecutive stagnant rounds are the signature of a long
			// waiting phase. A single one also occurs in ordinary coupon
			// tails, so require two in a row before paying the O(M)
			// boundary construction.
			if p.stagnant++; p.stagnant >= boundaryStagnantRounds {
				p.bnd.build(p.g, p.frontier)
				p.boundary = true
			}
		}
	}
}

// drawShard draws the round's neighbor choice (and failure coin) for
// senders [lo, hi) into the targets scratch. Only per-slot writes; the
// serial merge in Step commits.
func (p *Push) drawShard(_, lo, hi int) {
	round := uint64(p.round)
	targets := p.targets
	idx, nbrs := p.sampler.idx, p.sampler.nbrs
	if idx == nil || p.failTh != 0 {
		for k := lo; k < hi; k++ {
			u := p.senders[k]
			s := xrand.NewStream(p.seed, uint64(u), round)
			v := p.sampler.sample(u, &s)
			if p.failTh != 0 && s.Uint64() < p.failTh {
				v = -1 // transmission lost
			}
			targets[k] = v
		}
		return
	}
	// Reliable-links fast path: one draw per sender, sampling inlined.
	for k := lo; k < hi; k++ {
		u := p.senders[k]
		word := idx[u]
		if graph.WalkDegreeOne(word) {
			targets[k] = graph.WalkOnlyNeighbor(word, nbrs)
		} else {
			targets[k] = graph.WalkTarget(word, xrand.Mix3(p.seed, uint64(u), round), nbrs)
		}
	}
}

// stepSerial is the observer path: every informed vertex draws (from the
// same per-sender streams) so the observer sees each neighbor call, in
// sender order.
func (p *Push) stepSerial() {
	round := uint64(p.round)
	senders := p.frontier // snapshot: appended to only after the loop
	p.pending = p.pending[:0]
	for _, u := range senders {
		s := xrand.NewStream(p.seed, uint64(u), round)
		v := p.sampler.sample(u, &s)
		p.opts.Observer(p.round, u, v)
		if p.failTh != 0 && s.Uint64() < p.failTh {
			continue
		}
		if !p.informed.Test(int(v)) {
			p.informed.Set(int(v))
			p.pending = append(p.pending, v)
		}
	}
	p.frontier = append(p.frontier, p.pending...)
}

func errFailureProb(p float64) error {
	return fmt.Errorf("core: FailureProb must be in [0,1), got %g", p)
}
