package core

import (
	"fmt"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// BatchedPushPull runs K push-pull trials in fused lockstep. The dense
// exchange draw — every vertex samples a neighbor, the dominant per-round
// cost until a lane enters boundary mode — is one cross-lane blocked sweep
// (drawExchangeLanes): vertex blocks are the outer loop and lanes the
// inner, so each block's packed walk-index and CSR lines are touched by
// all K lanes while cache-hot instead of streaming the whole graph once
// per trial. Collect and commit run per lane with exactly the serial
// semantics, sharded across lanes when the bundle's budget and the round's
// work allow. A lane whose cut has a small side skips the sweep and
// resolves only the calls across the cut inside its lane pass, as does a
// lane in boundary mode with its active list (see exchangeLane and
// boundary.go).
type BatchedPushPull struct {
	g       *graph.Graph
	src     graph.Vertex
	seeds   []uint64
	failTh  uint64
	sampler neighborSampler
	callers int64
	lanes   []exchangeLane

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
// consumes rngs[t] exactly as NewPushPull would (one stream seed), so lane
// t replays serial trial t bit for bit. Observer configurations are
// rejected; callers fall back to serial processes on the K = 1 lane path.
func NewBatchedPushPull(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts PushPullOptions) (*BatchedPushPull, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.FailureProb < 0 || opts.FailureProb >= 1 {
		return nil, errFailureProb(opts.FailureProb)
	}
	if opts.Observer != nil {
		return nil, fmt.Errorf("push-pull: batched runs do not support observers")
	}
	p := &BatchedPushPull{
		g:       g,
		src:     s,
		seeds:   make([]uint64, len(rngs)),
		failTh:  xrand.BernoulliThreshold(opts.FailureProb),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]exchangeLane, len(rngs)),
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

// Step implements LaneProcess: one fused dense draw across the active lanes
// whose round is evaluated from every vertex, then the per-lane
// collect/commit passes.
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
}

// drawDenseShard draws vertices [lo, hi) for every dense lane through the
// shared cross-lane blocked sweep.
func (p *BatchedPushPull) drawDenseShard(_, lo, hi int) {
	drawExchangeLanes(&p.sampler, p.seeds, p.denseIDs, p.denseTargets, lo, hi, uint64(p.round), p.failTh)
}

// laneShard runs the collect/commit passes for active lanes [lo, hi):
// per lane, the serial PushPull.Step pass structure — collect exchanges
// against the pre-round informed state, then commit.
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
// still hot, and each lane's inner loop stays as tight as the serial
// drawDenseShard (stream base and slices in registers).
const exchangeBlock = 512

// drawExchangeLanes resolves the round's exchange call of vertices
// [lo, hi) of every listed lane into that lane's per-vertex targets slot
// (-1 for isolated vertices and failed exchanges), as one cross-lane
// blocked sweep: vertex u of lane laneIDs[j] calls exactly whom its serial
// trial's drawDenseShard has it call.
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
