// Package agents implements the system of independent random walks that
// drives the paper's visit-exchange and meet-exchange protocols: a
// collection of |A| = Θ(n) agents, each performing an independent simple
// (optionally lazy) random walk, starting from the stationary distribution
// deg(v)/2|E| (Section 3 of the paper).
//
// # Deterministic parallelism
//
// Stepping follows a counter-based randomness contract: every draw agent
// i makes in round r comes from the stream keyed (seed, i, r) (see
// xrand.NewStream), where seed is drawn once from the constructor's RNG.
// No draw depends on execution order or on how many values other agents
// consumed, so a step may be split into any number of shards over the
// worker pool in internal/par with bit-identical results. A walk system
// never decides that for itself: it steps inline until its owner — the
// protocol engine in core, which holds the parallelism budget — calls
// SetShards. Order-sensitive outputs (the Respawned list) are collected per
// shard and merged in shard order, which — shards being contiguous,
// ascending id ranges — preserves the paper's "ties broken by agent id"
// ordering.
//
// Walk steps with a non-nil ChooseFunc (the Section 5 coupling hook) run
// serially: the hook may close over shared mutable state, as the coupling
// machinery's lazily-built choice lists do. Agents the hook declines are
// stepped with exactly the same per-agent streams as the parallel path.
//
// # Batched multi-trial stepping
//
// BatchedWalks fuses K independent trials' walk systems into one stepper:
// a single blocked loop over agents steps every lane (trial) per round, so
// the packed walk index and CSR neighbor array are touched by all K lanes
// while cache-hot, and the loop runs degree-class-specialized, branchless
// inner bodies (the serial stepper's degree-1/power-of-two branches are
// data-dependent on mixed-degree families and their mispredictions
// dominate the step cost there). Lane t draws from streams keyed
// (seeds[t], agent, round) with seeds[t] consumed from trial t's RNG
// exactly as New would, so every lane's trajectory is bit-identical to a
// serial Walks — the contract core.RunManyLanes builds on.
//
// The package also provides epoch-stamped occupancy counters so protocols
// can track per-round vertex visits in O(|A|) per round without O(n)
// clears.
package agents

import (
	"fmt"
	"sync/atomic"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// Placement selects how agents are initially positioned.
type Placement int

const (
	// PlaceStationary samples each agent's start independently from the
	// stationary distribution deg(v)/2|E| — the paper's default model.
	PlaceStationary Placement = iota
	// PlaceOnePerVertex puts exactly one agent on each vertex (the variant
	// discussed after Lemma 11; requires Count == n).
	PlaceOnePerVertex
	// PlaceFixed uses the caller-provided start vertices.
	PlaceFixed
)

// Config configures a walk system. The zero value means "stationary
// placement, non-lazy walks" and is ready to use once Count is set.
type Config struct {
	// Count is the number of agents |A|.
	Count int
	// Lazy makes each walk stay put with probability 1/2 each round. The
	// paper uses lazy walks for meet-exchange on bipartite graphs, where
	// parity could otherwise keep two walks from ever meeting.
	Lazy bool
	// Placement selects the initial distribution.
	Placement Placement
	// Fixed holds the start vertices when Placement == PlaceFixed.
	Fixed []graph.Vertex
	// ChurnRate is the per-round probability that an agent "dies" and is
	// replaced by a fresh agent placed from the stationary distribution.
	// This implements the dynamic-agent variant sketched in the paper's
	// open problems (Section 9). Zero disables churn.
	ChurnRate float64
}

// Walks is a system of independent random walks on a fixed graph.
type Walks struct {
	g   *graph.Graph
	cfg Config

	// seed keys every per-(agent, round) stream; drawn once from the
	// constructor's RNG so trial seeds keep controlling everything.
	seed uint64
	// churnThreshold is ChurnRate as a raw-uint64 comparison bound.
	churnThreshold uint64

	pos  []graph.Vertex
	prev []graph.Vertex

	respawned []int   // agents replaced by churn in the latest Step
	shardResp [][]int // per-shard respawn scratch, merged in shard order
	shards    int     // shards per step, set by the owner (SetShards)
	stepFn    func(shard, lo, hi int)
	churnFn   func(shard, lo, hi int)
	round     int

	// stampDst/stampEpoch carry StepStamped's destination through the
	// pre-bound stampFn closure (rebinding a closure per round would
	// allocate).
	stampDst   []uint32
	stampEpoch uint32
	stampFn    func(shard, lo, hi int)
}

// ChooseFunc optionally overrides the destination of one agent's step. It
// receives the agent id and current vertex; returning ok=false falls back
// to a uniform random neighbor. The coupling machinery of Section 5 uses
// this hook to share neighbor choices with the push process.
type ChooseFunc func(agent int, from graph.Vertex) (to graph.Vertex, ok bool)

// New creates a walk system and places the agents. It consumes exactly one
// value from rng — the master seed of the per-agent streams — so callers
// constructing several systems from one RNG get independent walks.
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
		churnThreshold: xrand.BernoulliThreshold(cfg.ChurnRate),
		pos:            make([]graph.Vertex, cfg.Count),
		prev:           make([]graph.Vertex, cfg.Count),
	}
	w.SetShards(1)
	w.stepFn = func(_, lo, hi int) { w.stepRangeNoChurn(lo, hi) }
	w.churnFn = func(s, lo, hi int) { w.shardResp[s] = w.stepRangeChurn(lo, hi, w.shardResp[s][:0]) }
	w.stampFn = func(_, lo, hi int) { w.stepRangeStamp(lo, hi, w.shards > 1) }
	if err := placeLane(g, cfg, w.seed, w.pos); err != nil {
		return nil, err
	}
	copy(w.prev, w.pos)
	return w, nil
}

// placeLane fills lane (len cfg.Count) with cfg's initial placement,
// drawing agent i's stationary sample from stream (seed, i, 0). New and
// NewBatched share it, so a serial trial and a batched lane built from the
// same seed place every agent identically.
func placeLane(g *graph.Graph, cfg Config, seed uint64, lane []graph.Vertex) error {
	switch cfg.Placement {
	case PlaceStationary:
		// O(1) alias sampling per agent (table cached on the graph); agent
		// i draws from its round-0 stream, so placement is order-independent
		// too. It runs inline: constructors execute on the engine's trial
		// workers, before any shard budget exists.
		alias := g.StationaryAlias()
		for i := range lane {
			s := xrand.NewStream(seed, uint64(i), 0)
			lane[i] = graph.Vertex(alias.SampleStream(&s))
		}
	case PlaceOnePerVertex:
		if cfg.Count != g.N() {
			return fmt.Errorf("agents: PlaceOnePerVertex needs Count == N (%d != %d)", cfg.Count, g.N())
		}
		if g.MinDegree() == 0 {
			return fmt.Errorf("agents: PlaceOnePerVertex on a graph with isolated vertices")
		}
		for i := range lane {
			lane[i] = graph.Vertex(i)
		}
	case PlaceFixed:
		if len(cfg.Fixed) != cfg.Count {
			return fmt.Errorf("agents: PlaceFixed needs len(Fixed) == Count (%d != %d)", len(cfg.Fixed), cfg.Count)
		}
		for i, v := range cfg.Fixed {
			if v < 0 || int(v) >= g.N() {
				return fmt.Errorf("agents: fixed position %d out of range", v)
			}
			if g.Degree(v) == 0 {
				return fmt.Errorf("agents: fixed position %d is an isolated vertex", v)
			}
			lane[i] = v
		}
	default:
		return fmt.Errorf("agents: unknown placement %d", cfg.Placement)
	}
	return nil
}

// N returns the number of agents.
func (w *Walks) N() int { return len(w.pos) }

// SetShards sets how many contiguous shards each following step is split
// into over the worker pool (fewer than two: inline). The count never
// changes a trajectory, only who executes it.
func (w *Walks) SetShards(shards int) {
	w.shards = min(max(shards, 1), len(w.pos))
	for len(w.shardResp) < w.shards {
		w.shardResp = append(w.shardResp, nil)
	}
}

// Round returns the number of Step calls so far.
func (w *Walks) Round() int { return w.round }

// Pos returns the current vertex of agent i.
func (w *Walks) Pos(i int) graph.Vertex { return w.pos[i] }

// Prev returns the vertex agent i occupied before the latest Step.
func (w *Walks) Prev(i int) graph.Vertex { return w.prev[i] }

// Positions returns the current vertex of every agent, indexed by agent
// id. The slice aliases internal state: callers must treat it as read-only
// and not retain it across Step calls.
func (w *Walks) Positions() []graph.Vertex { return w.pos }

// Respawned returns the ids of agents replaced by churn during the latest
// Step, in increasing id order. The slice is reused between rounds;
// callers must not retain it.
func (w *Walks) Respawned() []int { return w.respawned }

// Step advances every walk one synchronous round. Every draw of agent i
// comes from the stream keyed (seed, i, round), so agents may be stepped
// in any order or in parallel with identical results; the paper's "ties
// broken by agent id" ordering is preserved because per-shard outputs are
// merged in ascending shard (hence id) order. choose, if non-nil, may
// override individual destinations (see ChooseFunc) and forces the serial
// path; laziness and churn are applied only to non-overridden agents.
func (w *Walks) Step(choose ChooseFunc) {
	w.round++
	w.respawned = w.respawned[:0]
	// Swap the position buffers: the step loops read prev (last round's
	// positions) and write every entry of pos, saving a per-agent store.
	w.prev, w.pos = w.pos, w.prev
	if choose != nil {
		w.stepSerial(choose)
		return
	}
	if w.cfg.ChurnRate <= 0 {
		par.DoN(w.shards, len(w.pos), w.stepFn)
		return
	}
	par.DoN(w.shards, len(w.pos), w.churnFn)
	for _, b := range w.shardResp[:w.shards] {
		w.respawned = append(w.respawned, b...)
	}
}

// StepStamped is Step(nil) fused with per-destination occupancy marking:
// it advances every walk one round and additionally stores epoch into
// stamp at each agent's new vertex, in the same pass that writes the
// position. Protocols in the "every agent informed" regime (the Ω(n)
// tails of the paper's star-like families) use it to drop their separate
// mark-informed-positions pass over all agents — see core.VisitExchange.
//
// The walk draws are identical to Step(nil)'s: agent i consumes the
// stream keyed (seed, i, round) either way, so fusing never perturbs a
// trajectory. Churn requires the respawn bookkeeping of the plain path
// and is not supported here; StepStamped panics if it is enabled.
// Stores into stamp go through atomics on the sharded path (two shards
// may stamp the same vertex with the same value); readers must run after
// StepStamped returns.
func (w *Walks) StepStamped(stamp []uint32, epoch uint32) {
	if w.cfg.ChurnRate > 0 {
		panic("agents: StepStamped with churn enabled")
	}
	w.round++
	w.respawned = w.respawned[:0]
	w.prev, w.pos = w.pos, w.prev
	w.stampDst, w.stampEpoch = stamp, epoch
	par.DoN(w.shards, len(w.pos), w.stampFn)
}

// stepRangeStamp is stepRangeNoChurn plus a stamp store per agent.
// sharedStamp selects atomic stamp stores for the sharded path, where
// concurrent shards may stamp the same vertex; the serial path uses plain
// stores.
func (w *Walks) stepRangeStamp(lo, hi int, sharedStamp bool) {
	stamp, epoch := w.stampDst, w.stampEpoch
	idx := w.g.WalkIndex()
	if idx == nil {
		// Graph too large to pack; same draws through the CSR slices, then
		// stamp the fresh positions.
		w.stepRangeGeneral(lo, hi)
		for _, p := range w.pos[lo:hi] {
			if sharedStamp {
				atomic.StoreUint32(&stamp[p], epoch)
			} else {
				stamp[p] = epoch
			}
		}
		return
	}
	nbrs := w.g.NeighborsRaw()
	pos, prev := w.pos, w.prev
	_ = pos[hi-1] // hoist the bounds checks out of the loop
	_ = prev[hi-1]
	base := xrand.MixBase(w.seed, uint64(lo), uint64(w.round))
	if w.cfg.Lazy {
		for i := lo; i < hi; i++ {
			from := prev[i]
			to := from // stay put on a set coin
			if u := xrand.Mix(base); u>>63 == 0 {
				word := idx[from]
				if graph.WalkDegreeOne(word) {
					to = graph.WalkOnlyNeighbor(word, nbrs)
				} else {
					to = graph.WalkTarget32(word, uint32(u), nbrs)
				}
			}
			pos[i] = to
			if sharedStamp {
				atomic.StoreUint32(&stamp[to], epoch)
			} else {
				stamp[to] = epoch
			}
			base += xrand.UnitStride
		}
		return
	}
	for i := lo; i < hi; i++ {
		from := prev[i]
		word := idx[from]
		var to graph.Vertex
		if graph.WalkDegreeOne(word) {
			to = graph.WalkOnlyNeighbor(word, nbrs)
		} else {
			to = graph.WalkTarget(word, xrand.Mix(base), nbrs)
		}
		pos[i] = to
		if sharedStamp {
			atomic.StoreUint32(&stamp[to], epoch)
		} else {
			stamp[to] = epoch
		}
		base += xrand.UnitStride
	}
}

// stepRangeNoChurn advances agents [lo, hi) along simple or lazy walks.
// This is the simulator's innermost loop: one packed-index load and one
// counter-based draw per agent (two for lazy walks, none for degree-1
// vertices). The per-agent stream base advances incrementally — one add
// per agent — which is why Step's buffer swap matters: the loop reads prev
// and unconditionally writes pos.
func (w *Walks) stepRangeNoChurn(lo, hi int) {
	idx := w.g.WalkIndex()
	if idx == nil {
		// Graph too large to pack; same draws through the CSR slices.
		w.stepRangeGeneral(lo, hi)
		return
	}
	nbrs := w.g.NeighborsRaw()
	pos, prev := w.pos, w.prev
	_ = pos[hi-1] // hoist the bounds checks out of the loop
	_ = prev[hi-1]
	base := xrand.MixBase(w.seed, uint64(lo), uint64(w.round))
	if w.cfg.Lazy {
		// One draw funds both decisions: the stay coin from the top bit,
		// the neighbor index from the (disjoint) low 32 bits.
		for i := lo; i < hi; i++ {
			from := prev[i]
			to := from // stay put on a set coin
			if u := xrand.Mix(base); u>>63 == 0 {
				word := idx[from]
				if graph.WalkDegreeOne(word) {
					to = graph.WalkOnlyNeighbor(word, nbrs)
				} else {
					to = graph.WalkTarget32(word, uint32(u), nbrs)
				}
			}
			pos[i] = to
			base += xrand.UnitStride
		}
		return
	}
	for i := lo; i < hi; i++ {
		from := prev[i]
		word := idx[from]
		var to graph.Vertex
		if graph.WalkDegreeOne(word) {
			to = graph.WalkOnlyNeighbor(word, nbrs)
		} else {
			to = graph.WalkTarget(word, xrand.Mix(base), nbrs)
		}
		pos[i] = to
		base += xrand.UnitStride
	}
}

// stepRangeChurn is the sharded walk step with churn enabled: each agent
// first draws its death coin, then (if alive) walks as usual. Respawn ids
// are appended to resp in increasing order within the shard.
func (w *Walks) stepRangeChurn(lo, hi int, resp []int) []int {
	alias := w.g.StationaryAlias()
	idx, nbrs := w.g.WalkIndex(), w.g.NeighborsRaw()
	seed, round := w.seed, uint64(w.round)
	for i := lo; i < hi; i++ {
		from := w.prev[i]
		s := xrand.NewStream(seed, uint64(i), round)
		if s.Uint64() < w.churnThreshold {
			w.pos[i] = graph.Vertex(alias.SampleStream(&s))
			resp = append(resp, i)
			continue
		}
		w.stepAgentTail(i, from, &s, idx, nbrs)
	}
	return resp
}

// stepRangeGeneral mirrors stepRangeNoChurn through Graph.Neighbors for
// graphs without a packed walk index, consuming identical draws.
func (w *Walks) stepRangeGeneral(lo, hi int) {
	seed, round := w.seed, uint64(w.round)
	for i := lo; i < hi; i++ {
		from := w.prev[i]
		s := xrand.NewStream(seed, uint64(i), round)
		u := s.Uint64()
		if w.cfg.Lazy {
			if u>>63 != 0 {
				w.pos[i] = from
				continue
			}
			nb := w.g.Neighbors(from)
			w.pos[i] = nb[xrand.ReduceDeg32(uint32(u), len(nb))]
			continue
		}
		nb := w.g.Neighbors(from)
		if len(nb) == 1 {
			w.pos[i] = nb[0]
			continue
		}
		w.pos[i] = nb[xrand.ReduceDeg(u, len(nb))]
	}
}

// stepAgentTail finishes one agent's step after any churn draw: one more
// draw funding the lazy coin (top bit, if configured) and the neighbor
// index. It always writes pos[i] (the buffers were swapped at the top of
// Step). idx and nbrs are the caller-hoisted walk index and CSR neighbor
// array (idx may be nil for unpacked graphs).
func (w *Walks) stepAgentTail(i int, from graph.Vertex, s *xrand.Stream, idx []uint64, nbrs []graph.Vertex) {
	u := s.Uint64()
	if w.cfg.Lazy && u>>63 != 0 {
		w.pos[i] = from
		return
	}
	if idx != nil {
		word := idx[from]
		if graph.WalkDegreeOne(word) {
			w.pos[i] = graph.WalkOnlyNeighbor(word, nbrs)
			return
		}
		if w.cfg.Lazy {
			w.pos[i] = graph.WalkTarget32(word, uint32(u), nbrs)
		} else {
			w.pos[i] = graph.WalkTarget(word, u, nbrs)
		}
		return
	}
	nb := w.g.Neighbors(from)
	if len(nb) == 1 {
		w.pos[i] = nb[0]
		return
	}
	if w.cfg.Lazy {
		w.pos[i] = nb[xrand.ReduceDeg32(uint32(u), len(nb))]
		return
	}
	w.pos[i] = nb[xrand.ReduceDeg(u, len(nb))]
}

// stepSerial is the ChooseFunc path: the hook may touch shared state, so
// agents run in id order on one goroutine. Non-overridden agents draw from
// the same per-agent streams as the parallel path.
func (w *Walks) stepSerial(choose ChooseFunc) {
	idx, nbrs := w.g.WalkIndex(), w.g.NeighborsRaw()
	seed, round := w.seed, uint64(w.round)
	for i := range w.pos {
		from := w.prev[i]
		if to, ok := choose(i, from); ok {
			w.pos[i] = to
			continue
		}
		s := xrand.NewStream(seed, uint64(i), round)
		if w.cfg.ChurnRate > 0 && s.Uint64() < w.churnThreshold {
			alias := w.g.StationaryAlias()
			w.pos[i] = graph.Vertex(alias.SampleStream(&s))
			w.respawned = append(w.respawned, i)
			continue
		}
		w.stepAgentTail(i, from, &s, idx, nbrs)
	}
}

// Occupancy is an epoch-stamped per-vertex counter. Resetting between
// rounds is O(1): bumping the epoch invalidates all previous counts. The
// epoch is 64-bit, so it never wraps in practice.
type Occupancy struct {
	stamp   []int64
	count   []int32
	epoch   int64
	touched []graph.Vertex
}

// NewOccupancy returns a counter over n vertices. Vertices start with stamp
// 0 and the first usable epoch is 1, so all counts begin at zero.
func NewOccupancy(n int) *Occupancy {
	return &Occupancy{
		stamp: make([]int64, n),
		count: make([]int32, n),
		epoch: 1,
	}
}

// NextRound clears all counts in O(1).
func (o *Occupancy) NextRound() {
	o.epoch++
	o.touched = o.touched[:0]
}

// Add increments the count of v and returns the new count.
func (o *Occupancy) Add(v graph.Vertex) int32 {
	if o.stamp[v] != o.epoch {
		o.stamp[v] = o.epoch
		o.count[v] = 0
		o.touched = append(o.touched, v)
	}
	o.count[v]++
	return o.count[v]
}

// Count returns the count of v this round.
func (o *Occupancy) Count(v graph.Vertex) int32 {
	if o.stamp[v] != o.epoch {
		return 0
	}
	return o.count[v]
}

// Touched returns the vertices with nonzero counts this round. The slice is
// reused between rounds; callers must not retain it.
func (o *Occupancy) Touched() []graph.Vertex { return o.touched }
