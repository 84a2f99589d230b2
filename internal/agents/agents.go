// Package agents implements the system of independent random walks that
// drives the paper's visit-exchange and meet-exchange protocols: a
// collection of |A| = Θ(n) agents, each performing an independent simple
// (optionally lazy) random walk, starting from the stationary distribution
// deg(v)/2|E| (Section 3 of the paper), optionally replaced by fresh agents
// at a churn rate (the dynamic-agents variant of Section 9).
//
// BatchedWalks is the package's one walk system. It steps K ≥ 1
// independent trials' walks — its lanes — in one blocked loop per round,
// paying the loop control once per agent block rather than per trial; a
// single trial is the one-lane system. On regular graphs a block's step
// computes every agent's neighbor slot first and gathers after, so the
// random CSR loads overlap; other graphs step through the packed walk
// index in one fused, branchless pass.
//
// # Deterministic parallelism
//
// Stepping follows a counter-based randomness contract: every draw agent
// i of lane t makes in round r comes from the stream keyed (seeds[t], i,
// r) (see xrand.NewStream), where seeds[t] is drawn once from lane t's
// RNG. With churn, the first draw is the agent's death coin; a dead agent
// samples its respawn vertex from the stationary distribution on the same
// stream, a survivor takes its walk draw next. No draw depends on
// execution order, on how many values other agents consumed, or on which
// lanes step alongside, so a lane may sit out rounds with bit-identical
// results. A step runs on the goroutine that calls it; the engine in core
// runs whole walk systems in parallel, never parts of one. The
// order-sensitive output, each lane's Respawned list, is built in
// ascending agent id, the paper's "ties broken by agent id" ordering.
//
// The walk step writes positions only; what the protocols do with them
// (deposits, pickups, meetings) is theirs, in package core. The package
// also provides Occupancy, an epoch-stamped per-vertex visit counter
// (package coupling counts meetings with it) that resets in O(1) per
// round.
package agents

import (
	"fmt"

	"rumor/internal/graph"
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

// placeLane fills lane (len cfg.Count) with cfg's initial placement,
// drawing agent i's stationary sample from stream (seed, i, 0), so a lane's
// placement depends on its seed alone, not on the lanes beside it.
func placeLane(g *graph.Graph, cfg Config, seed uint64, lane []graph.Vertex) error {
	switch cfg.Placement {
	case PlaceStationary:
		// O(1) alias sampling per agent (table cached on the graph); agent
		// i draws from its round-0 stream, so placement is order-independent
		// too.
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
