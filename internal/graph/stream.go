package graph

import (
	"fmt"
	"slices"
)

// Streaming two-pass CSR construction.
//
// The Builder materializes per-vertex adjacency slices before flattening
// them, so its peak memory is roughly twice the final CSR. The
// deterministic graph families don't need that: their edge sets are pure
// functions of the parameters, so the edges can be *replayed* instead of
// stored. StreamSpec captures a family as an edge-emitting closure and
// BuildStream assembles the CSR in exactly two runs of it:
//
//	pass 1  count degrees into a uint32 offset array (off[v+1]++) — a
//	        degree always fits 32 bits — learning m as it goes; widen to
//	        int64 only if 2m ≥ 2³², then prefix-sum the offsets in place
//	pass 2  place each endpoint at its vertex's cursor, using the offset
//	        entries themselves as cursors (off[u] advances through u's
//	        segment), then shift the array right one slot to restore it
//	sort    each vertex's segment in place, rejecting duplicates
//
// Peak memory is exactly the final CSR — offsets in the narrowest width
// the endpoint count allows plus the int32 neighbor array — with O(1)
// scratch. No per-vertex slices, no second copy, no degree array: the
// offsets double as the counting buffer and then as the placement
// cursors, and a widened copy replaces the narrow counts before the
// neighbor array exists. A 100M-vertex star builds in 1.2 GB, the size
// of its CSR.
//
// The result is bit-identical to what the Builder produces for the same
// edge set: both end with per-vertex sorted segments concatenated in
// vertex order, and equal graphs encode to byte-identical files (see
// EncodeCSR), which the property tests in stream_test.go pin down.
type StreamSpec struct {
	// N is the vertex count.
	N int
	// M, when nonzero, declares the number of undirected edges Emit
	// produces; BuildStream rejects a spec whose passes emit any other
	// count. Zero declares nothing: pass 1 learns m either way. Samplers
	// that fix m from parameters (randreg: nd/2, ba: C(m+1,2)+(n−m−1)m)
	// declare it; those that know m only after sampling (gnp, chunglu)
	// leave it zero.
	M int64
	// Name is the graph's human-readable name.
	Name string
	// Emit calls emit(u, v) exactly once per undirected edge, in any
	// order. It must be deterministic: BuildStream replays it and requires
	// the same edges each pass. Random samplers satisfy this with
	// counter-based streams — reconstructing the same (seed, unit, round)
	// key replays bit-identical draws on every pass.
	Emit func(emit func(u, v Vertex))
	// Landmarks names vertices for Graph.Landmark.
	Landmarks map[string]Vertex
}

// BuildStream assembles the spec's graph with peak memory equal to the
// final CSR. Self-loops, out-of-range endpoints, duplicate edges, and
// emitters that change between passes are reported as errors.
func BuildStream(s StreamSpec) (*Graph, error) {
	n := s.N
	if n < 0 {
		return nil, fmt.Errorf("graph: stream spec has negative N")
	}
	// Pass 1: count degrees into counts[v+1] so the in-place prefix sum
	// lands each vertex's start at off[v]. Endpoint validation happens
	// here, once; pass 2 trusts the (deterministic) emitter.
	counts := make([]uint32, n+1)
	var m int64
	var emitErr error
	s.Emit(func(u, v Vertex) {
		if emitErr != nil {
			return
		}
		if u == v {
			emitErr = fmt.Errorf("graph: self-loop at %d", u)
			return
		}
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			emitErr = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
			return
		}
		counts[int(u)+1]++
		counts[int(v)+1]++
		m++
	})
	if emitErr != nil {
		return nil, emitErr
	}
	if s.M != 0 && m != s.M {
		return nil, fmt.Errorf("graph: stream spec %q declared %d edges, emitted %d", s.Name, s.M, m)
	}
	endpoints := 2 * m
	off := widenOffsets(counts, endpoints)
	for v := 1; v <= n; v++ {
		off.set(v, off.at(v)+off.at(v-1))
	}

	// Pass 2: place endpoints at the per-vertex cursors. off[u] walks from
	// the start of u's segment to its end, so after the pass every entry
	// holds the *next* vertex's start and one right-shift restores the
	// offset invariant.
	neighbors := make([]Vertex, endpoints)
	var placed int64
	s.Emit(func(u, v Vertex) {
		neighbors[off.inc(int(u), 1)] = v
		neighbors[off.inc(int(v), 1)] = u
		placed++
	})
	if placed != m {
		return nil, fmt.Errorf("graph: stream spec %q emitted %d edges on replay, expected %d", s.Name, placed, m)
	}
	for v := n; v >= 1; v-- {
		off.set(v, off.at(v-1))
	}
	off.set(0, 0)

	// Sort each segment in place and reject duplicates, matching the
	// Builder's per-vertex sorted layout exactly.
	for v := 0; v < n; v++ {
		lo, hi := off.span(Vertex(v))
		seg := neighbors[lo:hi]
		slices.Sort(seg)
		for i := 1; i < len(seg); i++ {
			if seg[i] == seg[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, seg[i])
			}
		}
	}

	return &Graph{
		off:       off,
		neighbors: neighbors,
		name:      s.Name,
		landmarks: s.Landmarks,
	}, nil
}

// mustStream is used by generators whose emitters cannot produce
// invalid edges; a failure there is a programming error.
func mustStream(s StreamSpec) *Graph {
	g, err := BuildStream(s)
	if err != nil {
		panic(err)
	}
	return g
}

// emitClique emits all pairs within the contiguous vertex range [lo, hi).
func emitClique(emit func(u, v Vertex), lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			emit(Vertex(i), Vertex(j))
		}
	}
}

// emitCompleteBinaryTree emits the parent edges of a complete binary tree
// on n heap-numbered vertices starting at base.
func emitCompleteBinaryTree(emit func(u, v Vertex), base, n int) {
	for i := 1; i < n; i++ {
		emit(Vertex(base+(i-1)/2), Vertex(base+i))
	}
}

// cliqueEdges returns s*(s-1)/2 as an int64 without intermediate overflow
// for any s that fits a Vertex.
func cliqueEdges(s int) int64 {
	return int64(s) * int64(s-1) / 2
}
