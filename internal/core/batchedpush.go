package core

import (
	"fmt"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// pushLane is one trial's push state: the per-trial half of the serial
// Push process (informed set, frontier, boundary bookkeeping, messages),
// with the graph, sampler, and draw machinery shared across the bundle.
type pushLane struct {
	informed *bitset.Set
	frontier []graph.Vertex // all informed vertices, in discovery order
	boundary bool
	stagnant int
	bnd      pushBoundary
	targets  []graph.Vertex // per-sender draw scratch; -1 marks a failed send
	drawn    *bitset.Set    // word-commit scratch: this round's draw targets
	messages int64
}

// senders returns the vertices that draw this round: the boundary senders
// once the lane is in boundary mode, every informed vertex before.
func (L *pushLane) senders() []graph.Vertex {
	if L.boundary {
		return L.bnd.active
	}
	return L.frontier
}

// BatchedPush runs K push trials in fused lockstep. Lanes step
// back-to-back within each round — sharded across lanes when the bundle's
// budget and the round's sender count allow, since each lane writes only
// its own state — so the packed walk index and CSR neighbor array are
// touched by all K frontier scans while cache-hot.
// Every lane carries the full serial boundary-sender optimization (see
// boundary.go): dense frontier sends until two stagnant rounds, then only
// informed vertices with an uninformed neighbor draw.
type BatchedPush struct {
	g       *graph.Graph
	src     graph.Vertex
	opts    PushOptions
	seeds   []uint64 // per-lane exchange stream seeds, drawn like Push.seed
	failTh  uint64
	sampler neighborSampler
	lanes   []pushLane

	activeIDs []int
	budget    budget
	laneFn    func(shard, lo, hi int)
	round     int
}

var _ LaneProcess = (*BatchedPush)(nil)

// NewBatchedPush builds a K = len(rngs) lane push bundle. Lane t consumes
// rngs[t] exactly as NewPush would (one stream seed), so lane t replays
// serial trial t bit for bit. Observer configurations are rejected;
// callers fall back to serial processes on the K = 1 lane path.
func NewBatchedPush(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG, opts PushOptions) (*BatchedPush, error) {
	if err := checkSource(g, s); err != nil {
		return nil, err
	}
	if opts.FailureProb < 0 || opts.FailureProb >= 1 {
		return nil, errFailureProb(opts.FailureProb)
	}
	if opts.Observer != nil {
		return nil, fmt.Errorf("push: batched runs do not support observers")
	}
	p := &BatchedPush{
		g:       g,
		src:     s,
		opts:    opts,
		seeds:   make([]uint64, len(rngs)),
		failTh:  xrand.BernoulliThreshold(opts.FailureProb),
		sampler: newNeighborSampler(g),
		lanes:   make([]pushLane, len(rngs)),
	}
	p.laneFn = p.laneShard
	for t, rng := range rngs {
		p.seeds[t] = rng.Uint64()
		L := &p.lanes[t]
		L.informed = bitset.New(g.N())
		L.informed.Set(int(s))
		// Pre-size the frontier for small graphs; beyond the cap, append's
		// geometric growth amortizes without pinning N slots per lane up
		// front on graphs where the run may never inform everyone.
		pre := g.N()
		if pre > 1<<20 {
			pre = 1 << 20
		}
		L.frontier = append(make([]graph.Vertex, 0, pre), s)
	}
	return p, nil
}

// Name implements LaneProcess.
func (p *BatchedPush) Name() string { return "push" }

// K implements LaneProcess.
func (p *BatchedPush) K() int { return len(p.lanes) }

// Source implements LaneProcess.
func (p *BatchedPush) Source() graph.Vertex { return p.src }

// LaneDone implements LaneProcess.
func (p *BatchedPush) LaneDone(t int) bool { return len(p.lanes[t].frontier) == p.g.N() }

// LaneInformedCount implements LaneProcess (vertices).
func (p *BatchedPush) LaneInformedCount(t int) int { return len(p.lanes[t].frontier) }

// LaneMessages implements LaneProcess.
func (p *BatchedPush) LaneMessages(t int) int64 { return p.lanes[t].messages }

// LaneAllAgentsInformed implements LaneProcess: push has no agents.
func (p *BatchedPush) LaneAllAgentsInformed(int) bool { return false }

func (p *BatchedPush) setBudget(b budget) { p.budget = b }

// Step implements LaneProcess.
func (p *BatchedPush) Step(active []bool) {
	p.round++
	p.activeIDs = activeLanes(p.activeIDs[:0], active, len(p.lanes))
	work := 0
	for _, t := range p.activeIDs {
		work += len(p.lanes[t].senders())
	}
	par.DoN(p.budget.For(work), len(p.activeIDs), p.laneFn)
}

// laneShard runs the push round for active lanes [lo, hi).
func (p *BatchedPush) laneShard(_, lo, hi int) {
	for _, t := range p.activeIDs[lo:hi] {
		p.stepLane(t)
	}
}

// stepLane applies one push round to lane t, mirroring the serial
// Push.Step structure: snapshot the sender set, draw every sender's
// neighbor choice from its (seed, vertex, round) stream, then commit in
// draw order.
func (p *BatchedPush) stepLane(t int) {
	L := &p.lanes[t]
	// Every informed vertex sends (and is counted), but only senders that
	// can change state need to draw.
	L.messages += int64(len(L.frontier))
	senders := L.senders()
	m := len(senders) // snapshot: commits below may mutate the active set
	if m == 0 {
		return
	}
	if cap(L.targets) < m {
		// Grow geometrically: sized to the sender count, not N. On giant
		// graphs a per-lane N-sized scratch (400 MB at 100M vertices)
		// would rival the CSR itself; sender counts reach N only when the
		// run is nearly done.
		c := 2 * m
		if c < 64 {
			c = 64
		}
		L.targets = make([]graph.Vertex, c)
	}
	p.drawLane(t, senders, L.targets[:m])
	before := len(L.frontier)
	n := p.g.N()
	if !L.boundary && m >= (n+63)/64 {
		// Word-parallel commit: scatter the draws into a bitset, then
		// merge 64 vertices per AND-NOT (bitset.CommitNew). With at least
		// one sender per word the scatter+reset overhead is covered, and
		// dense rounds — everyone informed, almost every draw redundant —
		// collapse to one load-compare per word instead of 64 tests.
		// Newly informed vertices join the frontier in vertex order rather
		// than draw order; draws are keyed by vertex id, never by frontier
		// position, so results are unchanged (the serial engine keeps the
		// draw-order commit, and the equivalence suite pins the two).
		if L.drawn == nil {
			L.drawn = bitset.New(n)
		}
		for _, v := range L.targets[:m] {
			if v >= 0 {
				L.drawn.Set(int(v))
			}
		}
		L.informed.CommitNew(L.drawn, func(i int) {
			L.frontier = append(L.frontier, graph.Vertex(i))
		})
		L.drawn.Reset()
	} else {
		// Commit in draw order; the informed test makes duplicates commit
		// once. Boundary mode stays here: onInformed mutates the active
		// list the next round snapshots, and boundary sender sets are
		// small by construction.
		for _, v := range L.targets[:m] {
			if v >= 0 && !L.informed.Test(int(v)) {
				L.informed.Set(int(v))
				L.frontier = append(L.frontier, v)
				if L.boundary {
					L.bnd.onInformed(p.g, v)
				}
			}
		}
	}
	if !L.boundary {
		if len(L.frontier) != before {
			L.stagnant = 0
		} else if len(L.frontier) != p.g.N() {
			if L.stagnant++; L.stagnant >= boundaryStagnantRounds {
				L.bnd.build(p.g, L.frontier)
				L.boundary = true
			}
		}
	}
}

// drawLane draws lane t's neighbor choice (and failure coin) for each
// sender into targets, with exactly the serial Push.drawShard draw
// discipline.
func (p *BatchedPush) drawLane(t int, senders, targets []graph.Vertex) {
	round := uint64(p.round)
	seed := p.seeds[t]
	idx, nbrs := p.sampler.idx, p.sampler.nbrs
	if idx == nil || p.failTh != 0 {
		for k, u := range senders {
			s := xrand.NewStream(seed, uint64(u), round)
			v := p.sampler.sample(u, &s)
			if p.failTh != 0 && s.Uint64() < p.failTh {
				v = -1 // transmission lost
			}
			targets[k] = v
		}
		return
	}
	// Reliable-links fast path: one draw per sender, sampling inlined.
	for k, u := range senders {
		word := idx[u]
		if graph.WalkDegreeOne(word) {
			targets[k] = graph.WalkOnlyNeighbor(word, nbrs)
		} else {
			targets[k] = graph.WalkTarget(word, xrand.Mix3(seed, uint64(u), round), nbrs)
		}
	}
}
