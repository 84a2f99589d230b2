package agents

import (
	"fmt"
	"math/bits"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Walks is one trial's system of independent random walks over a
// graph: |A| agents stepping in one blocked loop per round.
//
// Agent i draws from the stream keyed (seed, i, round), seed being the
// first value of the trial's RNG, so a trajectory depends on that RNG
// alone. The churn-free loop takes no data-dependent branch (see
// stepBlocks).
type Walks struct {
	g   *graph.Graph
	cfg Config

	seed uint64 // the stream seed, the first value of the RNG

	// churnThreshold is ChurnRate as a raw-uint64 comparison bound, used
	// when churn is set.
	churn          bool
	churnThreshold uint64

	// pos and prev are the positions after and before the latest Step.
	pos  []graph.Vertex
	prev []graph.Vertex

	// respawned lists the agents replaced by churn in the latest Step, in
	// id order.
	respawned []int

	// deg is the graph's regular degree (graph.RegularDegree), 0 when its
	// degrees differ: regular graphs step through the slot-and-gather
	// bodies, which need no walk-index load.
	deg uint32

	round int
}

// New creates a walk system with cfg's initial placement. It
// consumes exactly one value from rng, the stream seed.
func New(g *graph.Graph, cfg Config, rng *xrand.RNG) (*Walks, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("agents: Count must be positive, got %d", cfg.Count)
	}
	if g.M() == 0 {
		return nil, fmt.Errorf("agents: graph has no edges")
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate >= 1 {
		return nil, fmt.Errorf("agents: ChurnRate must be in [0,1), got %g", cfg.ChurnRate)
	}
	w := &Walks{
		g:              g,
		cfg:            cfg,
		seed:           rng.Uint64(),
		churn:          cfg.ChurnRate > 0,
		churnThreshold: xrand.BernoulliThreshold(cfg.ChurnRate),
		pos:            make([]graph.Vertex, cfg.Count),
		prev:           make([]graph.Vertex, cfg.Count),
		deg:            uint32(g.RegularDegree()),
	}
	// Agent i draws its placement from stream (seed, i, 0).
	if err := place(g, cfg, w.seed, w.pos); err != nil {
		return nil, err
	}
	copy(w.prev, w.pos)
	return w, nil
}

// N returns the number of agents.
func (w *Walks) N() int { return len(w.pos) }

// Round returns the number of Step calls so far.
func (w *Walks) Round() int { return w.round }

// Positions returns the current positions, indexed by agent id. The slice
// aliases internal state and must not be retained across Step calls. An
// owner may overwrite entries between steps, to route an agent itself
// (the couplings of package coupling do); the next Step walks on from
// there.
func (w *Walks) Positions() []graph.Vertex { return w.pos }

// Prev returns the positions before the latest Step, indexed by agent id.
// The slice aliases internal state: treat it as read-only and do not
// retain it across Step calls.
func (w *Walks) Prev() []graph.Vertex { return w.prev }

// Respawned returns the ids of the agents replaced by churn during the
// latest Step, in increasing id order (empty without churn). The slice is
// reused between rounds; callers must not retain it.
func (w *Walks) Respawned() []int { return w.respawned }

// Step advances every agent by one synchronous round.
func (w *Walks) Step() {
	w.begin()
	w.stepBlocks()
}

// begin opens a step: it advances the round, swaps the position buffers
// (the step reads prev and writes pos) and empties the respawn list.
func (w *Walks) begin() {
	w.round++
	w.prev, w.pos = w.pos, w.prev
	w.respawned = w.respawned[:0]
}

// batchBlock is the agent-block width of the step: the loop steps one
// block at a time, so its inner loop stays tight (stream base and offsets
// in registers) and the regular bodies' slot lists fit on the stack.
const (
	blockBits  = 9
	batchBlock = 1 << blockBits
)

// stepBlocks is the blocked loop over the agents. No agent's step takes a
// data-dependent branch.
//
// A walk step is a random load from the CSR, and what bounds it is how
// many of those loads are in flight. On a regular graph the step needs no
// walk-index word, so the regular bodies split it in two passes: compute
// every agent's neighbor slot from (position, draw) into a stack list,
// then gather. The gather's loads are independent of each other, so the
// processor keeps many in flight, where a fused step waits on two
// dependent loads (index word, then neighbor) per agent. Other graphs
// take the fused branchless bodies, one index load and one neighbor load
// per step: the star and tree families mix degree 1 with large degrees,
// and a branch on the class would mispredict near-randomly per agent.
//
// The six block bodies are written out rather than parameterized: an
// indirect call per agent would give back more than the specialization
// wins. Churn, and graphs too large to pack, take the per-agent stream
// path (stepStreams) instead; every path consumes the same draws and
// applies the same reductions.
func (w *Walks) stepBlocks() {
	idx := w.g.WalkIndex()
	if idx == nil || w.churn {
		w.stepStreams()
		return
	}
	nbrs := w.g.NeighborsRaw()
	round := uint64(w.round)
	pos, prev := w.pos, w.prev
	lazy, d := w.cfg.Lazy, w.deg
	pow2 := d&(d-1) == 0
	var slots [batchBlock]uint32
	var moves [batchBlock]uint64
	for blo := 0; blo < len(pos); blo += batchBlock {
		bhi := min(blo+batchBlock, len(pos))
		base := xrand.MixBase(w.seed, uint64(blo), round)
		pv, ps := prev[blo:bhi], pos[blo:bhi]
		switch {
		case d == 0 && lazy:
			stepBlockLazyAny(pv, ps, idx, nbrs, base)
		case d == 0:
			stepBlockAny(pv, ps, idx, nbrs, base)
		case lazy && pow2:
			stepBlockLazyPow2(pv, ps, nbrs, d, base, &moves)
		case lazy:
			stepBlockLazyMul(pv, ps, nbrs, d, base, &moves)
		case pow2:
			stepBlockPow2(pv, ps, nbrs, d, base, &slots)
		default:
			stepBlockMul(pv, ps, nbrs, d, base, &slots)
		}
	}
}

// The block bodies below are deliberately separate small functions rather
// than one switch-laden loop: each gets its own register allocation,
// keeping the array pointers out of stack spills in the innermost loop.
// The call per block is amortized over batchBlock agents.

func stepBlockAny(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		ps[i] = graph.WalkTargetAny(idx[from], u, nbrs)
	}
}

// The lazy bodies fund the stay coin (top bit) and the neighbor index
// (low 32 bits) from one draw; the coin applies as a conditional move
// instead of a 50/50 branch.

func stepBlockLazyAny(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		to := graph.WalkTarget32Any(idx[from], uint32(u), nbrs)
		if u>>63 != 0 {
			to = from
		}
		ps[i] = to
	}
}

// The regular bodies: v's neighbors sit at nbrs[v·d : v·d+d], and slots
// fit in 32 bits because graph.RegularDegree is nonzero only for packable
// graphs. A power-of-two d reduces a draw with the AND mask, any other d
// with multiply-shift, exactly as the walk index does.

func stepBlockPow2(pv, ps, nbrs []graph.Vertex, d uint32, base uint64, slots *[batchBlock]uint32) {
	sl := slots[:len(pv)]
	mask := uint64(d - 1)
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		sl[i] = uint32(from)*d + uint32(u&mask)
	}
	gather(ps, sl, nbrs)
}

func stepBlockMul(pv, ps, nbrs []graph.Vertex, d uint32, base uint64, slots *[batchBlock]uint32) {
	sl := slots[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		hi, _ := bits.Mul64(u, uint64(d))
		sl[i] = uint32(from)*d + uint32(hi)
	}
	gather(ps, sl, nbrs)
}

// gather writes each agent's new position from its slot.
func gather(ps []graph.Vertex, slots []uint32, nbrs []graph.Vertex) {
	ps = ps[:len(slots)]
	for i, s := range slots {
		ps[i] = nbrs[s]
	}
}

// The lazy regular bodies copy every agent's position across as a stay,
// then list only the movers, each as its slot and agent index packed in
// one word, the count advancing by 1 − coin without a branch, and gather
// those. The count never exceeds the agent index, so masking it to the
// block width only drops a bounds check.

func stepBlockLazyPow2(pv, ps, nbrs []graph.Vertex, d uint32, base uint64, moves *[batchBlock]uint64) {
	ps = ps[:len(pv)]
	copy(ps, pv)
	mask := d - 1
	n := 0
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		slot := uint32(from)*d + uint32(u)&mask
		moves[n&(batchBlock-1)] = uint64(slot)<<blockBits | uint64(i)
		n += int(1 - u>>63)
	}
	gatherMoves(ps, moves[:n], nbrs)
}

func stepBlockLazyMul(pv, ps, nbrs []graph.Vertex, d uint32, base uint64, moves *[batchBlock]uint64) {
	ps = ps[:len(pv)]
	copy(ps, pv)
	n := 0
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		slot := uint32(from)*d + uint32(uint64(uint32(u))*uint64(d)>>32)
		moves[n&(batchBlock-1)] = uint64(slot)<<blockBits | uint64(i)
		n += int(1 - u>>63)
	}
	gatherMoves(ps, moves[:n], nbrs)
}

// gatherMoves moves each listed agent to its slot's neighbor.
func gatherMoves(ps []graph.Vertex, moves []uint64, nbrs []graph.Vertex) {
	for _, e := range moves {
		ps[e&(batchBlock-1)] = nbrs[e>>blockBits]
	}
}

// stepStreams steps the agents through their own streams and
// Graph.Neighbors, consuming exactly the draws of the fused loop — plus,
// with churn, a death coin first: a dead agent samples its respawn vertex
// from the stationary distribution on the same stream and is appended to
// the respawn list, in id order; a survivor takes the walk draw next.
func (w *Walks) stepStreams() {
	round := uint64(w.round)
	lazy, churn, threshold := w.cfg.Lazy, w.churn, w.churnThreshold
	var alias *xrand.Alias
	if churn {
		alias = w.g.StationaryAlias()
	}
	pos, prev := w.pos, w.prev[:len(w.pos)]
	for i, from := range prev {
		s := xrand.NewStream(w.seed, uint64(i), round)
		if churn && s.Uint64() < threshold {
			pos[i] = graph.Vertex(alias.SampleStream(&s))
			w.respawned = append(w.respawned, i)
			continue
		}
		u := s.Uint64()
		nb := w.g.Neighbors(from)
		switch {
		case lazy && u>>63 != 0:
			pos[i] = from
		case lazy:
			pos[i] = nb[xrand.ReduceDeg32(uint32(u), len(nb))]
		default:
			pos[i] = nb[xrand.ReduceDeg(u, len(nb))]
		}
	}
}
