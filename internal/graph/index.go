package graph

import (
	"math/bits"

	"rumor/internal/xrand"
)

// Hot-path sampling caches.
//
// Random-walk stepping and stationary placement are the innermost loops of
// the agent protocols: every agent, every round, resolves its current
// vertex to a (neighbor-list base, degree) pair and draws one neighbor.
// The caches below are built lazily, once per graph, and shared read-only
// by every concurrent trial.

// Walk-index packing: one uint64 per vertex holding everything a neighbor
// draw needs in a single random-access load.
//
//	bits 32..63  base: index of the vertex's first neighbor in Neighbors()
//	bits  1..31  degree-1 (power-of-two degree) or degree (otherwise)
//	bit   0      1 if the degree is a power of two
//
// For power-of-two degrees the stored value is directly the AND-mask for
// the draw, so `u & mask` replaces the multiply-shift reduction; degree 1
// stores mask 0 and needs no random bits at all.
//
// A regular graph needs no index word at all: its CSR places v's
// neighbors at v·d, so the walk stepper computes each agent's slot from
// (v, d) and gathers (RegularDegree). The index is still built for it —
// the build is where the regular degree is recorded, and other callers
// (the call protocols' samplers) read the words.
const (
	walkBaseShift = 32
	walkPow2Bit   = 1
)

// walkIndexMaxBytes caps the packed walk index's heap footprint at 8 bytes
// per vertex: graphs beyond 2^25 vertices (a 256 MiB index) skip it and
// sample through the CSR slices instead. Giant graphs are exactly the ones
// the mmap tier keeps off the heap, so pinning an O(N) heap index for them
// would defeat the out-of-core budget; the fallback consumes identical
// draws, so the cap never changes results — only per-draw cost.
const walkIndexMaxBytes = 1 << 28

// walkIndexEligible reports whether WalkIndex will (or did) build an
// index for this graph. It is a pure function of the graph's shape, so
// memory-cost estimates can charge the index before it is lazily built.
func (g *Graph) walkIndexEligible() bool {
	n := g.N()
	return n > 0 && int64(len(g.neighbors)) < 1<<32 && int64(n)*8 <= walkIndexMaxBytes
}

// WalkIndex returns the packed per-vertex sampling index, building it on
// first use. It returns nil when the graph is too large to pack (2M >=
// 2^32 neighbor slots, or the index would exceed walkIndexMaxBytes);
// callers fall back to the offsets-based path, which consumes identical
// draws and applies the same reduction (xrand.ReduceDeg mirrors the
// mask/multiply-shift split), so results do not depend on which path ran.
func (g *Graph) WalkIndex() []uint64 {
	g.walkOnce.Do(func() {
		if !g.walkIndexEligible() {
			return
		}
		idx := make([]uint64, g.N())
		d := len(g.neighbors) / g.N() // the degree, if the graph is regular
		regular := true
		for v := 0; v < g.N(); v++ {
			lo, hi := g.off.span(Vertex(v))
			base := uint64(lo) << walkBaseShift
			deg := uint64(hi - lo)
			if deg > 0 && deg&(deg-1) == 0 {
				idx[v] = base | (deg-1)<<1 | walkPow2Bit
			} else {
				idx[v] = base | deg<<1
			}
			regular = regular && hi-lo == d
		}
		if regular {
			g.walkRegular = d
		}
		g.walkIdx = idx
	})
	return g.walkIdx
}

// WalkTarget resolves one neighbor draw against a packed walk-index word:
// it maps the 64-bit draw u onto [0, deg) — an AND for power-of-two
// degrees, a multiply-shift reduction otherwise — and returns that
// neighbor. The caller must ensure the vertex has positive degree.
func WalkTarget(word uint64, u uint64, neighbors []Vertex) Vertex {
	base := word >> walkBaseShift
	dp := uint32(word)
	var i uint64
	if dp&walkPow2Bit != 0 {
		i = u & uint64(dp>>1)
	} else {
		i = uint64(xrand.ReduceN(u, int(dp>>1)))
	}
	return neighbors[base+i]
}

// WalkTarget32 resolves one neighbor draw from only 32 random bits: the
// AND-mask for power-of-two degrees, a 32-bit multiply-shift reduction
// otherwise (bias at most deg/2^32 — invisible at simulation scale). Lazy
// walks use it to fund the stay coin and the neighbor index from a single
// 64-bit draw: the coin takes the top bit, the index the low word, and the
// two never overlap.
func WalkTarget32(word uint64, u uint32, neighbors []Vertex) Vertex {
	base := word >> walkBaseShift
	dp := uint32(word)
	var i uint64
	if dp&walkPow2Bit != 0 {
		i = uint64(u & (dp >> 1))
	} else {
		i = uint64(u) * uint64(dp>>1) >> 32
	}
	return neighbors[base+i]
}

// WalkTargetAny resolves one neighbor draw for any positive-degree vertex
// without a degree-1 fast path: degree 1 is a power of two with mask 0, so
// the AND branch already returns the single neighbor. Both reduction
// results are computed and the power-of-two flag selects one, which the
// compiler turns into a conditional move — no branch to mispredict. The
// walk system's fused step (agents.Walks) uses it on graphs that are not
// regular: on mixed-degree families (star, double star) a degree-1 branch
// would be taken near-randomly per agent, and the mispredictions cost
// more than the spare multiply. Push-pull's every-vertex round uses it
// too, behind its own degree-0 and degree-1 tests. Draw-for-draw it returns exactly what the
// WalkDegreeOne/WalkTarget split returns for the same (word, u).
func WalkTargetAny(word, u uint64, neighbors []Vertex) Vertex {
	dp := uint32(word)
	d := uint64(dp >> 1) // AND-mask (pow2) or degree (otherwise)
	hi, _ := bits.Mul64(u, d)
	// sel is all-ones when the degree is not a power of two, zero when it
	// is; arithmetic selection rather than an if so the compiler cannot
	// reintroduce a data-dependent branch.
	sel := uint64(dp&walkPow2Bit) - 1
	i := (hi & sel) | (u & d &^ sel)
	return neighbors[word>>walkBaseShift+i]
}

// WalkTarget32Any is WalkTargetAny for the 32-bit lazy-walk draw scheme,
// consuming only the low 32 bits of the draw exactly as WalkTarget32 does.
func WalkTarget32Any(word uint64, u uint32, neighbors []Vertex) Vertex {
	dp := uint32(word)
	d := dp >> 1
	ms := uint64(u) * uint64(d) >> 32
	sel := uint64(dp&walkPow2Bit) - 1
	i := (ms & sel) | (uint64(u&d) &^ sel)
	return neighbors[word>>walkBaseShift+i]
}

// RegularDegree returns d when every vertex has degree d, which puts v's
// neighbors at Neighbors()[v·d : v·d+d]: a walk step on such a graph needs
// no walk-index load, only the slot v·d + reduce(u, d). It returns 0 for
// graphs whose degrees differ, edgeless graphs, and graphs too large to
// pack (the walk-index bound is what keeps every slot below 2^32). Builds
// the walk index as a side effect.
func (g *Graph) RegularDegree() int {
	if g.WalkIndex() == nil {
		return 0
	}
	return g.walkRegular
}

// WalkDegreeOne reports whether a packed walk-index word denotes a
// degree-1 vertex, whose single neighbor needs no randomness.
func WalkDegreeOne(word uint64) bool {
	// Degree 1 is a power of two with mask 0: dp == walkPow2Bit.
	return uint32(word) == walkPow2Bit
}

// WalkDegreeZero reports whether a packed walk-index word denotes an
// isolated vertex. Callers that draw for every vertex (push-pull, hybrid)
// must skip such vertices — WalkTarget on an isolated vertex would read a
// neighbor belonging to the next vertex. Walk systems never place agents
// on isolated vertices, so the agent stepping loops need no check.
func WalkDegreeZero(word uint64) bool { return uint32(word) == 0 }

// WalkOnlyNeighbor returns the single neighbor of a degree-1 vertex's
// packed word.
func WalkOnlyNeighbor(word uint64, neighbors []Vertex) Vertex {
	return neighbors[word>>walkBaseShift]
}

// NeighborsRaw exposes the full CSR neighbor array for use with WalkIndex
// words. The slice aliases graph storage and must not be modified.
func (g *Graph) NeighborsRaw() []Vertex { return g.neighbors }

// StationaryAlias returns an alias table over the stationary distribution
// deg(v)/2|E| of a random walk, building it on first use. Sampling it is
// O(1) per draw, replacing the O(log n) binary search over CSR offsets
// that EndpointOwner performs. Returns nil for edgeless graphs.
func (g *Graph) StationaryAlias() *xrand.Alias {
	g.aliasOnce.Do(func() {
		if len(g.neighbors) == 0 {
			return
		}
		weights := make([]float64, g.N())
		for v := 0; v < g.N(); v++ {
			weights[v] = float64(g.Degree(Vertex(v)))
		}
		a, err := xrand.NewAlias(weights)
		if err != nil {
			// Unreachable: at least one neighbor slot exists, so at
			// least one weight is positive.
			panic(err)
		}
		g.alias = a
	})
	return g.alias
}
