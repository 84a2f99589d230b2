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
	degInf   int64          // Σ deg over frontier (see pickSide)
	side     side           // this round's side; meaningless in boundary mode
	took     [numSides]int  // rounds evaluated from each side
	boundary bool
	stagnant int
	bnd      pushBoundary
	targets  []graph.Vertex // per-sender draw scratch (-1: failed send), or the reverse pass's finds
	drawn    *bitset.Set    // word-commit scratch: this round's draw targets
	messages int64
}

// BatchedPush runs K push trials in fused lockstep. Lanes step
// back-to-back within each round — sharded across lanes when the bundle's
// budget and the round's sender count allow, since each lane writes only
// its own state — so the packed walk index and CSR neighbor array are
// touched by all K frontier scans while cache-hot.
// Every lane evaluates a round from the cheaper side of its cut (see
// boundary.go): the frontier's sends, or — once Σ deg(U) < |I| — the
// uninformed vertices' informed neighbors' replayed sends; and after two
// stagnant rounds it enters the serial process's boundary mode, where only
// informed vertices with an uninformed neighbor draw.
type BatchedPush struct {
	g       *graph.Graph
	src     graph.Vertex
	seeds   []uint64 // per-lane exchange stream seeds, drawn like Push.seed
	failTh  uint64
	sampler neighborSampler
	lanes   []pushLane

	// forceSide, when set (tests only), replaces pickSide's choice in
	// every non-boundary round of every lane: each side is exact on each
	// such round, so a forced run pins one path through all regimes.
	forceSide side

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
		L.degInf = int64(g.Degree(s))
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
	n, twoM := p.g.N(), int64(p.g.EndpointCount())
	work := 0 // units the lane passes touch
	for _, t := range p.activeIDs {
		L := &p.lanes[t]
		if L.boundary {
			work += len(L.bnd.active)
			continue
		}
		s, cost := pickSide(false, len(L.frontier), L.degInf, n, twoM)
		if p.forceSide != sideRule {
			s = p.forceSide
		}
		L.side = s
		L.took[s]++
		work += int(cost)
	}
	par.DoN(p.budget.For(work), len(p.activeIDs), p.laneFn)
}

// laneShard runs the push round for active lanes [lo, hi).
func (p *BatchedPush) laneShard(_, lo, hi int) {
	for _, t := range p.activeIDs[lo:hi] {
		p.stepLane(t)
	}
}

// stepLane applies one push round to lane t: the serial Push.Step — resolve
// the round's sends, then commit — with the finds coming from either side
// of the cut.
func (p *BatchedPush) stepLane(t int) {
	L := &p.lanes[t]
	// Every informed vertex sends (and is counted), but only sends that
	// can change state need to be resolved.
	L.messages += int64(len(L.frontier))
	before := len(L.frontier)
	n := p.g.N()
	seed, round := p.seeds[t], uint64(p.round)
	var found []graph.Vertex // this round's targets; -1 marks a failed send
	if !L.boundary && L.side == sideUninformed {
		found = collectFromUninformed(p.g, &p.sampler, L.informed, seed, round, p.failTh, false, L.targets[:0])
		L.targets = found
	} else {
		// The senders: the boundary senders once the lane is in boundary
		// mode, every informed vertex before.
		senders := L.frontier
		if L.boundary {
			senders = L.bnd.active
		}
		m := len(senders) // snapshot: commits below may mutate the active set
		if cap(L.targets) < m {
			// Grow geometrically: sized to the sender count, not N. On
			// giant graphs a per-lane N-sized scratch (400 MB at 100M
			// vertices) would rival the CSR itself; sender counts reach N
			// only when the run is nearly done.
			L.targets = make([]graph.Vertex, max(2*m, 64))
		}
		found = L.targets[:m]
		for k, u := range senders {
			found[k] = p.sampler.call(seed, u, round, p.failTh)
		}
		if !L.boundary && m >= (n+63)/64 {
			p.commitWords(L, found)
			found = nil
		}
	}
	// Commit in order; the informed test makes duplicates commit once.
	// Boundary mode always commits here: onInformed mutates the active
	// list the next round snapshots, and boundary sender sets are small by
	// construction.
	for _, v := range found {
		if v >= 0 && !L.informed.Test(int(v)) {
			L.informed.Set(int(v))
			L.frontier = append(L.frontier, v)
			L.degInf += int64(p.g.Degree(v))
			if L.boundary {
				L.bnd.onInformed(p.g, v)
			}
		}
	}
	if !L.boundary {
		if len(L.frontier) != before {
			L.stagnant = 0
		} else if len(L.frontier) != n {
			if L.stagnant++; L.stagnant >= boundaryStagnantRounds {
				L.bnd.build(p.g, L.frontier)
				L.boundary = true
			}
		}
	}
}

// commitWords is the word-parallel commit of a dense round's targets:
// scatter the draws into a bitset, then merge 64 vertices per AND-NOT
// (bitset.CommitNew). With at least one sender per word the scatter+reset
// overhead is covered, and dense rounds — everyone informed, almost every
// draw redundant — collapse to one load-compare per word instead of 64
// tests. Newly informed vertices join the frontier in vertex order rather
// than draw order; draws are keyed by vertex id, never by frontier
// position, so results are unchanged (the serial engine keeps the
// draw-order commit, and the equivalence suite pins the two).
func (p *BatchedPush) commitWords(L *pushLane, targets []graph.Vertex) {
	if L.drawn == nil {
		L.drawn = bitset.New(p.g.N())
	}
	for _, v := range targets {
		if v >= 0 {
			L.drawn.Set(int(v))
		}
	}
	L.informed.CommitNew(L.drawn, func(i int) {
		L.frontier = append(L.frontier, graph.Vertex(i))
		L.degInf += int64(p.g.Degree(graph.Vertex(i)))
	})
	L.drawn.Reset()
}
