package core

import (
	"fmt"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// ppullLane is one trial's push-pull state.
type ppullLane struct {
	informed *bitset.Set
	count    int
	boundary bool
	stagnant int
	bnd      exchangeBoundary
	srcs     []graph.Vertex // per-slot sender (boundary mode)
	targets  []graph.Vertex // per-vertex (dense) or per-slot (boundary) draws
	pending  []graph.Vertex
	messages int64
}

// BatchedPushPull runs K push-pull trials in fused lockstep. The dense
// exchange draw — every vertex samples a neighbor, the dominant per-round
// cost until a lane enters boundary mode — is one cross-lane blocked sweep
// (drawExchangeLanes): vertex blocks are the outer loop and lanes the
// inner, so each block's packed walk-index and CSR lines are touched by
// all K lanes while cache-hot instead of streaming the whole graph once
// per trial. Collect and commit run per lane with exactly the serial
// semantics, sharded across lanes when the bundle's budget and the round's
// work allow; lanes in boundary mode (see boundary.go) draw their small
// active lists inside their lane pass.
type BatchedPushPull struct {
	g       *graph.Graph
	src     graph.Vertex
	opts    PushPullOptions
	seeds   []uint64
	failTh  uint64
	sampler neighborSampler
	callers int64
	lanes   []ppullLane

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
		opts:    opts,
		seeds:   make([]uint64, len(rngs)),
		failTh:  xrand.BernoulliThreshold(opts.FailureProb),
		sampler: newNeighborSampler(g),
		callers: callerCount(g),
		lanes:   make([]ppullLane, len(rngs)),
	}
	p.denseFn = p.drawDenseShard
	p.laneFn = p.laneShard
	for t, rng := range rngs {
		p.seeds[t] = rng.Uint64()
		L := &p.lanes[t]
		L.informed = bitset.New(g.N())
		L.informed.Set(int(s))
		L.count = 1
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

// Step implements LaneProcess: one fused dense draw across the non-boundary
// active lanes, then the per-lane collect/commit passes.
func (p *BatchedPushPull) Step(active []bool) {
	p.round++
	p.activeIDs = activeLanes(p.activeIDs[:0], active, len(p.lanes))
	p.denseIDs = p.denseIDs[:0]
	p.denseTargets = p.denseTargets[:0]
	n := p.g.N()
	work := 0 // senders the lane passes draw for or collect from
	for _, t := range p.activeIDs {
		L := &p.lanes[t]
		if L.boundary {
			work += len(L.bnd.active)
			continue
		}
		work += n
		if L.targets == nil {
			L.targets = make([]graph.Vertex, n)
		}
		p.denseIDs = append(p.denseIDs, t)
		p.denseTargets = append(p.denseTargets, L.targets)
	}
	if len(p.denseIDs) > 0 {
		par.DoN(p.budget.For(len(p.denseIDs)*n), n, p.denseFn)
	}
	par.DoN(p.budget.For(work), len(p.activeIDs), p.laneFn)
}

// drawDenseShard draws vertices [lo, hi) for every dense lane through the
// shared cross-lane blocked sweep.
func (p *BatchedPushPull) drawDenseShard(_, lo, hi int) {
	drawExchangeLanes(p.sampler, p.seeds, p.denseIDs, p.denseTargets, lo, hi, uint64(p.round), p.failTh)
}

// laneShard runs the collect/commit passes for active lanes [lo, hi).
func (p *BatchedPushPull) laneShard(_, lo, hi int) {
	for _, t := range p.activeIDs[lo:hi] {
		p.stepLane(t)
	}
}

// stepLane applies one push-pull round to lane t, mirroring the serial
// PushPull.Step pass structure: collect exchanges against the pre-round
// informed state, then commit.
func (p *BatchedPushPull) stepLane(t int) {
	L := &p.lanes[t]
	L.messages += p.callers // every non-isolated vertex calls a neighbor
	L.pending = L.pending[:0]
	n := p.g.N()
	if L.boundary {
		m := len(L.bnd.active)
		if m == 0 {
			return
		}
		p.drawActiveLane(t)
		// Collect against the pre-round informed state (the active list
		// itself mutates only in the commit below, hence srcs).
		L.pending = collectExchangeActive(L.informed, L.srcs[:m], L.targets[:m], L.pending)
	} else {
		L.pending = collectExchangeDenseWords(L.informed, L.targets[:n], L.pending)
	}
	// Commit.
	countBefore := L.count
	L.count = commitExchange(p.g, L.informed, &L.bnd, L.boundary, L.pending, L.count)
	if !L.boundary {
		if L.count != countBefore {
			L.stagnant = 0
		} else if L.count != n {
			if L.stagnant++; L.stagnant >= boundaryStagnantRounds {
				L.bnd.build(p.g, L.informed)
				if L.srcs == nil {
					L.srcs = make([]graph.Vertex, n)
				}
				L.boundary = true
			}
		}
	}
}

// drawActiveLane draws lane t's active-list slots, recording the sender
// alongside, with the serial drawActiveShard draw discipline.
func (p *BatchedPushPull) drawActiveLane(t int) {
	L := &p.lanes[t]
	m := len(L.bnd.active)
	drawExchangeActive(p.sampler, p.seeds[t], L.bnd.active, L.srcs[:m], L.targets[:m], uint64(p.round), p.failTh)
}

// exchangeBlock is the vertex-block width of the fused dense exchange
// draw: lanes take turns over one block before the sweep moves on, so the
// block's packed walk-index and CSR lines are touched by all K lanes while
// still hot, and each lane's inner loop stays as tight as the serial
// drawDenseShard (stream base and slices in registers).
const exchangeBlock = 512

// drawExchangeLanes draws the round's exchange neighbor choice for
// vertices [lo, hi) of every listed lane into that lane's per-vertex
// targets slot (-1 for isolated vertices and failed exchanges), as one
// cross-lane blocked sweep. Draws are identical to the serial
// drawDenseShard's: vertex u of lane laneIDs[j] consumes stream
// (seeds[laneIDs[j]], u, round) exactly as its serial trial would.
func drawExchangeLanes(sampler neighborSampler, seeds []uint64, laneIDs []int, targets [][]graph.Vertex, lo, hi int, round, failTh uint64) {
	idx, nbrs := sampler.idx, sampler.nbrs
	for blo := lo; blo < hi; blo += exchangeBlock {
		bhi := blo + exchangeBlock
		if bhi > hi {
			bhi = hi
		}
		for j, t := range laneIDs {
			seed := seeds[t]
			if idx == nil || failTh != 0 {
				ts := targets[j]
				for u := blo; u < bhi; u++ {
					s := xrand.NewStream(seed, uint64(u), round)
					v := sampler.sample(graph.Vertex(u), &s)
					if failTh != 0 && s.Uint64() < failTh {
						v = -1
					}
					ts[u] = v
				}
				continue
			}
			drawExchangeBlock(targets[j][blo:bhi], idx[blo:bhi], nbrs, xrand.MixBase(seed, uint64(blo), round))
		}
	}
}

// drawExchangeBlock is one lane's turn over one vertex block: the inlined
// packed-index sampling of the serial drawDenseShard, with the incremental
// stream base.
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
