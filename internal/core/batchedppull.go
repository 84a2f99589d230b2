package core

import (
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// PushPullOptions configures the push-pull protocol.
type PushPullOptions struct {
	// FailureProb is the probability that an exchange silently fails.
	FailureProb float64
	// Observer, if non-nil, receives every neighbor call, failed ones
	// included. Only single trials take one; it changes no draw or
	// outcome.
	Observer MoveObserver
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

// BatchedPushPull is the bidirectional rumor-spreading protocol of Karp et
// al. (Section 3) — in every round, every vertex (informed or not) calls a
// uniform random neighbor, and if exactly one endpoint of the call was
// informed before the round, the other becomes informed — for K trials in
// fused lockstep. Messages count one call per non-isolated vertex per
// round: an isolated vertex has nobody to call.
//
// The dense exchange draw — every vertex samples a neighbor — is one
// cross-lane blocked sweep (drawExchangeLanes): vertex blocks are the
// outer loop and lanes the inner, so each block's packed walk-index and
// CSR lines are touched by all K lanes while cache-hot instead of
// streaming the whole graph once per trial. Collect and commit run per
// lane, sharded across lanes when the bundle's budget and the round's work
// allow. A lane whose cut has a small side skips the sweep and resolves
// only the calls across the cut inside its lane pass, and after two
// stagnant rounds a lane enters boundary mode, where only vertices with a
// neighbor in the opposite informed state call (see exchangeLane and
// boundary.go): on the double star that turns the Ω(n) bridge-crossing
// wait from Θ(n) work per round into Θ(1).
type BatchedPushPull struct {
	g       *graph.Graph
	src     graph.Vertex
	seeds   []uint64
	failTh  uint64
	sampler neighborSampler
	callers int64
	lanes   []exchangeLane
	observe MoveObserver // one-lane bundles only

	forceSide side // tests only: see BatchedPush.forceSide

	activeIDs    []int
	denseIDs     []int
	denseTargets [][]graph.Vertex // parallel to denseIDs
	budget       budget
	denseFn      func(shard, lo, hi int)
	laneFn       func(shard, lo, hi int)
	round        int
}

var _ LaneProcess = (*BatchedPushPull)(nil)

// NewBatchedPushPull builds a K = len(rngs) lane push-pull bundle. Lane t
// consumes exactly one value from rngs[t] (its stream seed), so lane t of
// any bundle replays the one-lane trial on the same RNG bit for bit. An
// Observer needs K = 1.
func NewBatchedPushPull(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts PushPullOptions) (*BatchedPushPull, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.FailureProb < 0 || opts.FailureProb >= 1 {
		return nil, errFailureProb(opts.FailureProb)
	}
	if opts.Observer != nil && len(rngs) != 1 {
		return nil, errObserverLanes
	}
	p := &BatchedPushPull{
		g:       g,
		src:     s,
		seeds:   make([]uint64, len(rngs)),
		failTh:  xrand.BernoulliThreshold(opts.FailureProb),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]exchangeLane, len(rngs)),
		observe: opts.Observer,
	}
	p.denseFn = p.drawDenseShard
	p.laneFn = p.laneShard
	for t, rng := range rngs {
		p.seeds[t] = rng.Uint64()
		p.lanes[t].init(g, s)
	}
	return p, nil
}

// Name implements LaneProcess.
func (p *BatchedPushPull) Name() string { return "push-pull" }

// K implements LaneProcess.
func (p *BatchedPushPull) K() int { return len(p.lanes) }

// Source implements LaneProcess.
func (p *BatchedPushPull) Source() graph.Vertex { return p.src }

// LaneDone implements LaneProcess.
func (p *BatchedPushPull) LaneDone(t int) bool { return p.lanes[t].count == p.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (p *BatchedPushPull) LaneInformedCount(t int) int { return p.lanes[t].count }

// LaneMessages implements LaneProcess.
func (p *BatchedPushPull) LaneMessages(t int) int64 { return p.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess: push-pull has no agents.
func (p *BatchedPushPull) LaneAllAgentsInformed(int) bool { return false }

func (p *BatchedPushPull) setBudget(b budget) { p.budget = b }

// Round returns the number of rounds the bundle has stepped.
func (p *BatchedPushPull) Round() int { return p.round }

// Step implements LaneProcess: one fused dense draw across the active lanes
// whose round is evaluated from every vertex, then the per-lane
// collect/commit passes, then the observer's replay of the round's calls.
func (p *BatchedPushPull) Step(active []bool) {
	p.round++
	p.activeIDs = activeLanes(p.activeIDs[:0], active, len(p.lanes))
	p.denseIDs = p.denseIDs[:0]
	p.denseTargets = p.denseTargets[:0]
	work := 0 // units the lane passes touch
	for _, t := range p.activeIDs {
		L := &p.lanes[t]
		work += L.plan(p.g, p.forceSide)
		if L.dense() {
			p.denseIDs = append(p.denseIDs, t)
			p.denseTargets = append(p.denseTargets, L.targets)
		}
	}
	if n := p.g.N(); len(p.denseIDs) > 0 {
		par.DoN(p.budget.For(len(p.denseIDs)*n), n, p.denseFn)
	}
	par.DoN(p.budget.For(work), len(p.activeIDs), p.laneFn)
	if p.observe != nil {
		p.observeCalls()
	}
}

// observeCalls reports a one-lane bundle's round to its observer: every
// non-isolated vertex's call, in vertex order, failed ones included. A
// call is a pure function of (seed, vertex, round), so it is replayed here
// whichever side, or boundary mode, the round was evaluated from.
func (p *BatchedPushPull) observeCalls() {
	round := uint64(p.round)
	for u := range p.g.N() {
		if v := p.sampler.call(p.seeds[0], graph.Vertex(u), round, 0); v >= 0 {
			p.observe(p.round, graph.Vertex(u), v)
		}
	}
}

// drawDenseShard draws vertices [lo, hi) for every dense lane through the
// shared cross-lane blocked sweep.
func (p *BatchedPushPull) drawDenseShard(_, lo, hi int) {
	drawExchangeLanes(&p.sampler, p.seeds, p.denseIDs, p.denseTargets, lo, hi, uint64(p.round), p.failTh)
}

// laneShard runs the push-pull round for active lanes [lo, hi): per lane,
// collect the exchanges against the pre-round informed state, then commit.
// A vertex informed during round t neither pushes nor can be pulled from
// until round t+1, exactly as Section 3 specifies.
func (p *BatchedPushPull) laneShard(_, lo, hi int) {
	for _, t := range p.activeIDs[lo:hi] {
		L := &p.lanes[t]
		L.messages += p.callers // every non-isolated vertex calls a neighbor
		L.collect(p.g, &p.sampler, p.seeds[t], uint64(p.round), p.failTh)
		L.commit(p.g)
	}
}

// exchangeBlock is the vertex-block width of the fused dense exchange
// draw: lanes take turns over one block before the sweep moves on, so the
// block's packed walk-index and CSR lines are touched by all K lanes while
// still hot, and each lane's inner loop stays tight (stream base and
// slices in registers).
const exchangeBlock = 512

// drawExchangeLanes resolves the round's exchange call of vertices
// [lo, hi) of every listed lane into that lane's per-vertex targets slot
// (-1 for isolated vertices and failed exchanges), as one cross-lane
// blocked sweep: vertex u of lane laneIDs[j] calls exactly whom
// neighborSampler.call has it call (TestLaneExchangeBlockIsCall).
func drawExchangeLanes(sampler *neighborSampler, seeds []uint64, laneIDs []int, targets [][]graph.Vertex, lo, hi int, round, failTh uint64) {
	idx, nbrs := sampler.idx, sampler.nbrs
	for blo := lo; blo < hi; blo += exchangeBlock {
		bhi := min(blo+exchangeBlock, hi)
		for j, t := range laneIDs {
			seed, ts := seeds[t], targets[j]
			if idx != nil && failTh == 0 {
				drawExchangeBlock(ts[blo:bhi], idx[blo:bhi], nbrs, xrand.MixBase(seed, uint64(blo), round))
				continue
			}
			for u := blo; u < bhi; u++ {
				ts[u] = sampler.call(seed, graph.Vertex(u), round, failTh)
			}
		}
	}
}

// drawExchangeBlock is one lane's turn over one vertex block: the
// reliable-links arm of neighborSampler.call unrolled over consecutive
// callers, so the stream base advances by one add per vertex and nothing
// is called per draw — the sweep resolves 2n calls a round where the other
// paths resolve a cut's worth. TestLaneExchangeBlockIsCall pins it to call.
func drawExchangeBlock(targets []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	for i, word := range idx {
		if graph.WalkDegreeOne(word) {
			targets[i] = graph.WalkOnlyNeighbor(word, nbrs)
		} else if graph.WalkDegreeZero(word) {
			targets[i] = -1 // isolated vertex: no call
		} else {
			targets[i] = graph.WalkTarget(word, xrand.Mix(base), nbrs)
		}
		base += xrand.UnitStride
	}
}
