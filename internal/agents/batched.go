package agents

import (
	"fmt"
	"sync/atomic"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// BatchedWalks runs K independent trials' walk systems over one graph in a
// single fused loop per round: the agent loop is shared and every lane
// (trial) steps inside it, so the packed walk index and CSR neighbor array
// stay cache-hot across the K lanes and the loop control is paid once per
// agent instead of once per (trial, agent).
//
// Lane t draws from streams keyed (seeds[t], agent, round) with exactly the
// draw discipline of the serial Walks — seeds[t] is drawn from trial t's
// RNG precisely as New does — so lane positions are bit-identical to K
// serial systems built from the same RNGs. The fused loop resolves
// neighbor draws branchlessly (graph.WalkTargetAny): on mixed-degree
// families the serial degree-1 branch is data-dependent and mispredicts,
// while the select compiles to a conditional move; the draws consumed are
// unchanged.
//
// Positions use a struct-of-arrays [K][numAgents] layout (lane-major), so
// each lane's positions remain a contiguous slice (Lane) that the batched
// protocol drivers scan exactly like the serial ones.
//
// Done lanes are masked out per Step: a finished trial stops consuming CPU
// while its siblings keep stepping, and its frozen positions stay readable.
//
// Churn and ChooseFunc are not supported — callers with either fall back
// to serial trials (core.RunMany).
type BatchedWalks struct {
	g   *graph.Graph
	cfg Config

	k     int
	count int
	seeds []uint64 // per-lane stream seeds, drawn like Walks.seed

	// pos/prev are lane-major: lane t's agent i lives at [t*count+i].
	pos  []graph.Vertex
	prev []graph.Vertex

	// laneIDs lists the lanes active this Step, rebuilt from the mask each
	// round; a lane's pos/prev offset is laneIDs[j]*count.
	laneIDs []int

	// dirty[t] records that lane t's two swap buffers differ (the lane
	// stepped since its last freeze copy), so a newly masked lane is
	// copied across exactly once and then costs nothing per round.
	dirty []bool

	// class is the walk-index degree-class specialization the fused loop
	// runs with (see walkClass).
	class walkClass

	// stepFn is stepShard bound once, so sharded dispatch allocates no
	// closure per round.
	stepFn func(shard, lo, hi int)

	// stamps/epochs carry StepStamped's per-lane occupancy marking through
	// the pre-bound stepFn closure; stamps[t] == nil means lane t steps
	// without stamping. sharedStamp selects atomic stamp stores on the
	// sharded path (concurrent shards may stamp the same vertex of one
	// lane's array with the same epoch value).
	stamps      [][]uint32
	epochs      []uint32
	sharedStamp bool

	shards int // shards per step, set by the owner (SetShards)
	round  int
}

// walkClass selects the fused loop's neighbor-draw reduction, from
// Graph.WalkDegreeMix: uniform-class graphs skip the per-vertex class
// dispatch entirely, mixed graphs use the branchless select.
type walkClass uint8

const (
	classMixed walkClass = iota // both reductions present: branchless select
	classPow2                   // every positive degree a power of two: AND only
	classMul                    // no power-of-two degrees: multiply-shift only
)

func classify(g *graph.Graph) walkClass {
	hasPow2, hasMul := g.WalkDegreeMix()
	switch {
	case hasPow2 && !hasMul:
		return classPow2
	case hasMul && !hasPow2:
		return classMul
	default:
		return classMixed
	}
}

// NewBatched creates K = len(rngs) walk systems sharing one fused stepper.
// It consumes exactly one value from each rng — lane t's stream seed, drawn
// in lane order — matching what New would consume for each trial.
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
	if cfg.ChurnRate != 0 {
		return nil, fmt.Errorf("agents: batched walks do not support churn (ChurnRate=%g)", cfg.ChurnRate)
	}
	k := len(rngs)
	w := &BatchedWalks{
		g:     g,
		cfg:   cfg,
		k:     k,
		count: cfg.Count,
		seeds: make([]uint64, k),
		pos:   make([]graph.Vertex, k*cfg.Count),
		prev:  make([]graph.Vertex, k*cfg.Count),
		dirty: make([]bool, k),
	}
	for t, rng := range rngs {
		w.seeds[t] = rng.Uint64()
	}
	w.class = classify(g)
	w.stepFn = w.stepShard
	// Lane t's agent i draws from stream (seeds[t], i, 0) through the same
	// placement code the serial constructor uses.
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

// SetShards sets how many contiguous agent shards each following step is
// split into over the worker pool (fewer than two: inline), as
// Walks.SetShards does. The owner may change it every round, as lanes
// finish and the step's work shrinks.
func (w *BatchedWalks) SetShards(shards int) { w.shards = shards }

// Round returns the number of Step calls so far.
func (w *BatchedWalks) Round() int { return w.round }

// Lane returns lane t's current positions, indexed by agent id. The slice
// aliases internal state: treat it as read-only and do not retain it across
// Step calls.
func (w *BatchedWalks) Lane(t int) []graph.Vertex {
	return w.pos[t*w.count : (t+1)*w.count]
}

// Step advances every lane with active[t] true by one synchronous round
// (inactive lanes keep their positions and consume no draws — their streams
// are keyed by round, so skipping rounds never shifts later draws). active
// must have length K; passing nil steps every lane.
func (w *BatchedWalks) Step(active []bool) {
	w.StepStamped(active, nil, nil)
}

// StepStamped is Step fused with per-lane occupancy stamping: every active
// lane t with a non-nil stamps[t] additionally gets epochs[t] stored into
// stamps[t] at each of its agents' destinations, in the same blocked pass
// that writes the positions. It is the batched counterpart of the serial
// Walks.StepStamped — protocols whose lanes reach the "every agent
// informed" regime (the Ω(n) tails of the paper's star-like families) use
// it to drop those lanes' separate mark-informed-positions pass (see
// core.BatchedVisitExchange). The walk draws are identical to Step's for
// every lane, stamped or not, so fusing never perturbs a trajectory.
//
// Stores into a lane's stamp array go through atomics on the sharded path
// (two shards may stamp the same vertex with the same value); readers must
// run after StepStamped returns. Passing nil stamps is exactly Step.
func (w *BatchedWalks) StepStamped(active []bool, stamps [][]uint32, epochs []uint32) {
	w.round++
	// Swap buffers as the serial stepper does: the fused loop reads prev and
	// writes pos for active lanes; a lane masked off after stepping needs
	// its frozen positions carried across once (dirty), after which both
	// buffers agree and the lane costs nothing per round.
	w.prev, w.pos = w.pos, w.prev
	w.laneIDs = w.laneIDs[:0]
	for t := 0; t < w.k; t++ {
		if active == nil || active[t] {
			w.laneIDs = append(w.laneIDs, t)
			w.dirty[t] = true
		} else if w.dirty[t] {
			copy(w.pos[t*w.count:(t+1)*w.count], w.prev[t*w.count:(t+1)*w.count])
			w.dirty[t] = false
		}
	}
	if len(w.laneIDs) == 0 {
		return
	}
	w.stamps, w.epochs = stamps, epochs
	w.sharedStamp = w.shards > 1
	par.DoN(w.shards, w.count, w.stepFn)
}

// batchBlock is the agent-block width of the fused step: lanes take turns
// over one block before the loop moves to the next, so the block's packed
// walk-index and CSR lines are touched by all K lanes while still hot, and
// the per-lane inner loop stays as tight as the serial stepper (stream base
// and offsets in registers).
const batchBlock = 512

// stepShard is the fused loop: agents [lo, hi) of every active lane,
// blocked so each lane's turn is a tight serial-style scan. Each
// (lane, agent) step is one packed-index load, one draw resolution, and
// one store — identical draws to the serial stepper, minus its
// data-dependent branches: uniform-degree-class graphs run a loop with no
// reduction dispatch at all, mixed graphs a branchless arithmetic select
// (the serial degree-1/power-of-two branches are taken near-randomly per
// agent on the star and tree families, and their mispredictions dominate
// the step cost there). The six loop bodies are written out rather than
// parameterized: an indirect call per (lane, agent) would give back more
// than the specialization wins.
func (w *BatchedWalks) stepShard(_, lo, hi int) {
	idx := w.g.WalkIndex()
	if idx == nil {
		w.stepShardGeneral(lo, hi)
		return
	}
	nbrs := w.g.NeighborsRaw()
	round := uint64(w.round)
	pos, prev := w.pos, w.prev
	lazy := w.cfg.Lazy
	class := w.class
	for blo := lo; blo < hi; blo += batchBlock {
		bhi := blo + batchBlock
		if bhi > hi {
			bhi = hi
		}
		for _, t := range w.laneIDs {
			off := t * w.count
			base := xrand.MixBase(w.seeds[t], uint64(blo), round)
			pv := prev[off+blo : off+bhi]
			ps := pos[off+blo : off+bhi]
			if lazy {
				switch class {
				case classPow2:
					stepBlockLazyPow2(pv, ps, idx, nbrs, base)
				case classMul:
					stepBlockLazyMul(pv, ps, idx, nbrs, base)
				default:
					stepBlockLazyAny(pv, ps, idx, nbrs, base)
				}
			} else {
				switch class {
				case classPow2:
					stepBlockPow2(pv, ps, idx, nbrs, base)
				case classMul:
					stepBlockMul(pv, ps, idx, nbrs, base)
				default:
					stepBlockAny(pv, ps, idx, nbrs, base)
				}
			}
			if w.stamps != nil && w.stamps[t] != nil {
				// Stamp the block's fresh destinations while they are still
				// in registers/L1 — the batched analogue of the serial
				// stepRangeStamp store.
				stampBlock(ps, w.stamps[t], w.epochs[t], w.sharedStamp)
			}
		}
	}
}

// stampBlock stores epoch at each destination in ps. shared selects atomic
// stores for the sharded path, where concurrent shards may stamp the same
// vertex (always with the same epoch value).
func stampBlock(ps []graph.Vertex, stamp []uint32, epoch uint32, shared bool) {
	if shared {
		for _, p := range ps {
			atomic.StoreUint32(&stamp[p], epoch)
		}
		return
	}
	for _, p := range ps {
		stamp[p] = epoch
	}
}

// The six block bodies below are deliberately separate small functions
// rather than one switch-laden loop: each gets its own register
// allocation, keeping the walk index and CSR pointers out of stack spills
// in the innermost loop. The call per (block, lane) is amortized over
// batchBlock agents.

func stepBlockPow2(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		ps[i] = graph.WalkTargetPow2(idx[from], u, nbrs)
	}
}

func stepBlockMul(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		ps[i] = graph.WalkTargetMul(idx[from], u, nbrs)
	}
}

func stepBlockAny(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		ps[i] = graph.WalkTargetAny(idx[from], u, nbrs)
	}
}

// The lazy bodies fund the stay coin (top bit) and the neighbor index
// (low 32 bits) from one draw, as the serial lazy loop does; the coin
// applies as a conditional move instead of a 50/50 branch.

func stepBlockLazyPow2(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		to := graph.WalkTarget32Pow2(idx[from], uint32(u), nbrs)
		if u>>63 != 0 {
			to = from
		}
		ps[i] = to
	}
}

func stepBlockLazyMul(pv, ps []graph.Vertex, idx []uint64, nbrs []graph.Vertex, base uint64) {
	ps = ps[:len(pv)]
	for i, from := range pv {
		u := xrand.Mix(base)
		base += xrand.UnitStride
		to := graph.WalkTarget32Mul(idx[from], uint32(u), nbrs)
		if u>>63 != 0 {
			to = from
		}
		ps[i] = to
	}
}

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

// stepShardGeneral mirrors stepShard through Graph.Neighbors for graphs
// without a packed walk index, consuming identical draws (it matches the
// serial stepRangeGeneral lane for lane).
func (w *BatchedWalks) stepShardGeneral(lo, hi int) {
	round := uint64(w.round)
	for _, t := range w.laneIDs {
		off := t * w.count
		seed := w.seeds[t]
		for i := lo; i < hi; i++ {
			from := w.prev[off+i]
			s := xrand.NewStream(seed, uint64(i), round)
			u := s.Uint64()
			if w.cfg.Lazy {
				if u>>63 != 0 {
					w.pos[off+i] = from
					continue
				}
				nb := w.g.Neighbors(from)
				w.pos[off+i] = nb[xrand.ReduceDeg32(uint32(u), len(nb))]
				continue
			}
			nb := w.g.Neighbors(from)
			if len(nb) == 1 {
				w.pos[off+i] = nb[0]
				continue
			}
			w.pos[off+i] = nb[xrand.ReduceDeg(u, len(nb))]
		}
		if w.stamps != nil && w.stamps[t] != nil {
			stampBlock(w.pos[off+lo:off+hi], w.stamps[t], w.epochs[t], w.sharedStamp)
		}
	}
}
