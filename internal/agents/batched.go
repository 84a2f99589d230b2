package agents

import (
	"fmt"
	"math/bits"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// BatchedWalks runs K independent trials' walk systems over one graph in a
// single blocked loop per round: the agent loop is shared and every lane
// (trial) steps a block of agents inside it, so the loop control is paid
// once per block instead of once per (trial, agent).
//
// Lane t draws from streams keyed (seeds[t], agent, round), seeds[t] being
// the first value of trial t's RNG, so a lane's trajectory depends on its
// own RNG alone: lane t of a K-lane system is bit-identical to a one-lane
// system built from the same RNG. The churn-free loop takes no
// data-dependent branch (see stepBlocks).
//
// Positions use a struct-of-arrays [K][numAgents] layout (lane-major), so
// each lane's positions remain a contiguous slice (Lane) that the protocol
// drivers scan directly.
//
// Done lanes are masked out per Step: a finished trial stops consuming CPU
// while its siblings keep stepping, and its frozen positions stay readable.
type BatchedWalks struct {
	g   *graph.Graph
	cfg Config

	k     int
	count int
	seeds []uint64 // per-lane stream seeds, the first value of each RNG

	// churnThreshold is ChurnRate as a raw-uint64 comparison bound, used
	// when churn is set.
	churn          bool
	churnThreshold uint64

	// pos/prev are lane-major: lane t's agent i lives at [t*count+i].
	pos  []graph.Vertex
	prev []graph.Vertex

	// respawned[t] lists lane t's agents replaced by churn in the latest
	// Step, in id order.
	respawned [][]int

	// laneIDs lists the lanes active this Step, rebuilt from the mask each
	// round; a lane's pos/prev offset is laneIDs[j]*count.
	laneIDs []int

	// dirty[t] records that lane t's two swap buffers differ (the lane
	// stepped since its last freeze copy), so a newly masked lane is
	// copied across exactly once and then costs nothing per round.
	dirty []bool

	// deg is the graph's regular degree (graph.RegularDegree), 0 when its
	// degrees differ: regular graphs step through the slot-and-gather
	// bodies, which need no walk-index load.
	deg uint32

	round int
}

// NewBatched creates K = len(rngs) walk systems sharing one fused stepper.
// It consumes exactly one value from each rng — lane t's stream seed, drawn
// in lane order.
func NewBatched(g *graph.Graph, cfg Config, rngs []*xrand.RNG) (*BatchedWalks, error) {
	if len(rngs) == 0 {
		return nil, fmt.Errorf("agents: NewBatched needs at least one trial RNG")
	}
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("agents: Count must be positive, got %d", cfg.Count)
	}
	if g.M() == 0 {
		return nil, fmt.Errorf("agents: graph has no edges")
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate >= 1 {
		return nil, fmt.Errorf("agents: ChurnRate must be in [0,1), got %g", cfg.ChurnRate)
	}
	k := len(rngs)
	w := &BatchedWalks{
		g:              g,
		cfg:            cfg,
		k:              k,
		count:          cfg.Count,
		seeds:          make([]uint64, k),
		churn:          cfg.ChurnRate > 0,
		churnThreshold: xrand.BernoulliThreshold(cfg.ChurnRate),
		pos:            make([]graph.Vertex, k*cfg.Count),
		prev:           make([]graph.Vertex, k*cfg.Count),
		respawned:      make([][]int, k),
		dirty:          make([]bool, k),
	}
	for t, rng := range rngs {
		w.seeds[t] = rng.Uint64()
	}
	w.deg = uint32(g.RegularDegree())
	// Lane t's agent i draws its placement from stream (seeds[t], i, 0).
	for t := 0; t < k; t++ {
		if err := placeLane(g, cfg, w.seeds[t], w.pos[t*cfg.Count:(t+1)*cfg.Count]); err != nil {
			return nil, err
		}
	}
	copy(w.prev, w.pos)
	return w, nil
}

// K returns the number of lanes (trials).
func (w *BatchedWalks) K() int { return w.k }

// N returns the number of agents per lane.
func (w *BatchedWalks) N() int { return w.count }

// Round returns the number of Step calls so far.
func (w *BatchedWalks) Round() int { return w.round }

// Lane returns lane t's current positions, indexed by agent id. The slice
// aliases internal state and must not be retained across Step calls. An
// owner may overwrite entries between steps of a lane it keeps active, to
// route an agent itself (the couplings of package coupling do, on one
// lane); the next Step walks on from there.
func (w *BatchedWalks) Lane(t int) []graph.Vertex {
	return w.pos[t*w.count : (t+1)*w.count]
}

// Prev returns lane t's positions before the latest Step, indexed by agent
// id (a lane masked out of that Step did not move: Prev equals Lane). The
// slice aliases internal state: treat it as read-only and do not retain it
// across Step calls.
func (w *BatchedWalks) Prev(t int) []graph.Vertex {
	return w.prev[t*w.count : (t+1)*w.count]
}

// Respawned returns the ids of lane t's agents replaced by churn during the
// latest Step, in increasing id order (empty without churn, and for a
// lane masked out of that Step). The slice is reused between rounds;
// callers must not retain it.
func (w *BatchedWalks) Respawned(t int) []int { return w.respawned[t] }

// Step advances every lane with active[t] true by one synchronous round
// (inactive lanes keep their positions and consume no draws — their streams
// are keyed by round, so skipping rounds never shifts later draws). active
// must have length K; passing nil steps every lane.
func (w *BatchedWalks) Step(active []bool) {
	if w.begin(active) {
		w.stepBlocks()
	}
}

// begin opens a step: it advances the round, swaps the position buffers
// and lists the active lanes, and reports whether any lane steps.
func (w *BatchedWalks) begin(active []bool) bool {
	w.round++
	// Swap buffers: the fused loop reads prev and writes pos for active
	// lanes; a lane masked off after stepping needs its frozen positions
	// carried across once (dirty), after which both buffers agree and the
	// lane costs nothing per round.
	w.prev, w.pos = w.pos, w.prev
	w.laneIDs = w.laneIDs[:0]
	for t := 0; t < w.k; t++ {
		w.respawned[t] = w.respawned[t][:0]
		if active == nil || active[t] {
			w.laneIDs = append(w.laneIDs, t)
			w.dirty[t] = true
		} else if w.dirty[t] {
			copy(w.pos[t*w.count:(t+1)*w.count], w.prev[t*w.count:(t+1)*w.count])
			w.dirty[t] = false
		}
	}
	return len(w.laneIDs) > 0
}

// batchBlock is the agent-block width of the step: lanes take turns
// over one block before the loop moves to the next, so the per-lane inner
// loop stays tight (stream base and offsets in registers) and the regular
// bodies' slot lists fit on the stack.
const (
	blockBits  = 9
	batchBlock = 1 << blockBits
)

// stepBlocks is the blocked loop over the agents of every active lane,
// blocked so each lane's turn is a tight scan. No (lane, agent) step takes
// a data-dependent branch.
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
// indirect call per (lane, agent) would give back more than the
// specialization wins. Churn, and graphs too large to pack, take the
// per-agent stream path (stepStreams) instead; every path consumes the
// same draws and applies the same reductions.
func (w *BatchedWalks) stepBlocks() {
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
	for blo := 0; blo < w.count; blo += batchBlock {
		bhi := min(blo+batchBlock, w.count)
		for _, t := range w.laneIDs {
			off := t * w.count
			base := xrand.MixBase(w.seeds[t], uint64(blo), round)
			pv := prev[off+blo : off+bhi]
			ps := pos[off+blo : off+bhi]
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
}

// The block bodies below are deliberately separate small functions rather
// than one switch-laden loop: each gets its own register allocation,
// keeping the array pointers out of stack spills in the innermost loop.
// The call per (block, lane) is amortized over batchBlock agents.

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

// stepStreams steps the agents of every active lane through their own
// streams and Graph.Neighbors, consuming exactly the draws of the fused
// loop — plus, with churn, a death coin first: a dead agent samples its
// respawn vertex from the stationary distribution on the same stream and
// is appended to its lane's respawn list, in id order; a survivor takes
// the walk draw next.
func (w *BatchedWalks) stepStreams() {
	round := uint64(w.round)
	lazy, churn, threshold := w.cfg.Lazy, w.churn, w.churnThreshold
	var alias *xrand.Alias
	if churn {
		alias = w.g.StationaryAlias()
	}
	for _, t := range w.laneIDs {
		off := t * w.count
		seed := w.seeds[t]
		pos, prev := w.pos[off:off+w.count], w.prev[off:off+w.count]
		resp := w.respawned[t]
		for i := range w.count {
			from := prev[i]
			s := xrand.NewStream(seed, uint64(i), round)
			if churn && s.Uint64() < threshold {
				pos[i] = graph.Vertex(alias.SampleStream(&s))
				resp = append(resp, i)
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
		w.respawned[t] = resp
	}
}
