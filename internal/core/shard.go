package core

import (
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// Sharding support for the deterministic parallel round engine.
//
// Every protocol round is split into a parallel phase and a serial merge:
// the parallel phase draws randomness from counter-based streams keyed
// (protocol seed, unit id, round) — so no draw depends on execution order —
// and writes only to per-unit slots or per-shard append buffers; the merge
// then applies shard outputs in ascending shard order, which, shards being
// contiguous ascending unit ranges, realizes the paper's "ties broken by
// agent id" convention. Results are therefore bit-identical for a given
// seed at any GOMAXPROCS.

// shardWork is the least work, in units (one sender draw, one agent step
// or scan), a shard must carry. The benchmark's ledger prices a two-shard
// dispatch at 0.9 us uncontended (par.dispatch_us) and ~2.5 us per round
// under load, and a unit at 0.6-5 ns (core.*.ns_per_message,
// agents.ns_per_agent_step): at 4096 units the cheapest phase breaks even
// with the dearest dispatch and every other one gains.
const shardWork = 4096

// budget is how far a process may split one round phase: at most shards
// ways, and only into shards of at least grain units. The zero value
// never splits, so a process nobody handed a budget steps inline.
//
// The engine has one owner of parallelism. RunManyLanes spends the
// processors on bundles first and gives each bundle workers/bundles (at
// least 1) as its budget: with the adaptive K there are as many bundles as
// processors and every round runs inline; a single-trial Run, a sweep of
// fewer trials than processors, or a fixed wide K gets the idle
// processors. The budget bounds physical parallelism only — results are
// bit-identical at every shard count.
type budget struct{ shards, grain int }

// machineBudget is the budget of a caller that owns every processor.
func machineBudget() budget { return budget{par.Procs(), shardWork} }

// For returns the shard count for a phase of `work` units: one while the
// phase is too small for two full shards, so boundary-phase rounds (a few
// senders, a few nanoseconds) never pay a dispatch.
func (b budget) For(work int) int {
	if b.shards <= 1 || work < 2*b.grain {
		return 1
	}
	return min(b.shards, work/b.grain)
}

// budgeted is the hook through which a driver hands a process its budget;
// every Process and LaneProcess of this package implements it.
type budgeted interface{ setBudget(b budget) }

// NOTE: the bitset-word scans over agents share a helper only where the
// per-agent predicate is the same concrete test (markInformed for
// meet-exchange; collectDeposits and pickupAgents for visit-exchange and
// the hybrid's agent half). The meet-exchange meeting scan repeats
// the loop shape — including the ghost-bit mask `inv &= 1<<rem - 1` for
// the final partial word — rather than take a predicate closure: an
// indirect call per agent would land in the engine's hottest loops. A fix
// to the masking must be applied at every site.

// neighborSampler resolves uniform neighbor draws against the graph's
// packed walk index when available (single load + AND or multiply-shift),
// falling back to the CSR slices — with identical draw consumption — for
// graphs too large to pack.
type neighborSampler struct {
	g    *graph.Graph
	idx  []uint64
	nbrs []graph.Vertex
}

func newNeighborSampler(g *graph.Graph) neighborSampler {
	return neighborSampler{g: g, idx: g.WalkIndex(), nbrs: g.NeighborsRaw()}
}

// sample returns a uniform neighbor of u, consuming exactly one draw from
// s — except for degree-1 vertices (no draw) and isolated vertices, which
// return -1 (no call can be made).
func (ns *neighborSampler) sample(u graph.Vertex, s *xrand.Stream) graph.Vertex {
	if ns.idx != nil {
		word := ns.idx[u]
		if graph.WalkDegreeOne(word) {
			return graph.WalkOnlyNeighbor(word, ns.nbrs)
		}
		if graph.WalkDegreeZero(word) {
			return -1
		}
		return graph.WalkTarget(word, s.Uint64(), ns.nbrs)
	}
	nb := ns.g.Neighbors(u)
	if len(nb) == 1 {
		return nb[0]
	}
	if len(nb) == 0 {
		return -1
	}
	return nb[xrand.ReduceDeg(s.Uint64(), len(nb))]
}

// call is the one definition of "vertex u's call in round `round` under
// (seed, failTh)": the neighbor u's (seed, u, round) stream picks — the
// only neighbor of a degree-1 vertex, without a draw — or -1 when u is
// isolated or the stream's next draw, the failure coin, falls under failTh.
// It is a pure function of its arguments, so u's neighbor may evaluate it
// as well as u: every path of the fused call protocols — forward, from the
// other side of the cut, boundary — resolves calls here (see boundary.go).
func (ns *neighborSampler) call(seed uint64, u graph.Vertex, round, failTh uint64) graph.Vertex {
	if ns.idx != nil && failTh == 0 {
		// Reliable links on the packed index: at most one draw.
		word := ns.idx[u]
		if graph.WalkDegreeOne(word) {
			return graph.WalkOnlyNeighbor(word, ns.nbrs)
		}
		if graph.WalkDegreeZero(word) {
			return -1
		}
		return graph.WalkTarget(word, xrand.Mix3(seed, uint64(u), round), ns.nbrs)
	}
	s := xrand.NewStream(seed, uint64(u), round)
	v := ns.sample(u, &s)
	if failTh != 0 && s.Uint64() < failTh {
		v = -1
	}
	return v
}
