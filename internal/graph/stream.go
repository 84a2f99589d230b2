package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rumor/internal/par"
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
//	sort    each vertex's segment in place, rejecting duplicates; vertex
//	        ranges sort in parallel through internal/par
//
// Peak memory is the final CSR — offsets in the narrowest width the
// endpoint count allows plus the int32 neighbor array — plus the block
// buffers below. No per-vertex slices, no second copy, no degree array:
// the offsets double as the counting buffer and then as the placement
// cursors, and a widened copy replaces the narrow counts before the
// neighbor array exists. A 100M-vertex star builds in 1.2 GB, the size
// of its CSR.
//
// Blocks. An emitter may split its edges into independent blocks (gnp's
// pair-index spans, chunglu's row ranges), each a pure function of its
// index. BuildStream then samples blocks on one goroutine per processor,
// each into a buffer of its own, while the calling goroutine applies the
// filled buffers strictly in block order with plain increments. The
// degree counts, the placement cursors and the first error reported are
// therefore exactly those of a serial run, and the CSR is a pure function
// of the spec whatever the worker count. One buffer per worker plus one
// is in flight, so the extra memory is O(workers × block) and
// independent of n.
// Workers counting or placing directly with atomic adds lost: locked
// increments serialize the placement pass's cache misses, and a gnp build
// ran about twice as slow as the serial one at one and at two processors.
// With one processor or one block the emitter runs inline, unbuffered.
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
	// Blocks is the number of blocks Emit splits the edge set into; zero
	// or one means a single block.
	Blocks int
	// Emit calls emit(u, v) exactly once per undirected edge of the given
	// block, in any order. It must be deterministic: BuildStream replays
	// every block once per pass and requires the same edges each time.
	// Blocks run concurrently, so a block may depend on its index and on
	// immutable state only. Random samplers satisfy this with
	// counter-based streams keyed by the block — reconstructing the same
	// (seed, unit, round) key replays bit-identical draws on every pass.
	Emit func(block int, emit func(u, v Vertex))
	// Landmarks names vertices for Graph.Landmark.
	Landmarks map[string]Vertex
}

// BuildStream assembles the spec's graph with peak memory equal to the
// final CSR plus O(processors) block buffers. Self-loops, out-of-range
// endpoints, duplicate edges, and emitters that change between passes
// are reported as errors; among several, the first in block order (and,
// for duplicates, at the lowest vertex) is the one reported.
func BuildStream(s StreamSpec) (*Graph, error) {
	n := s.N
	if n < 0 {
		return nil, fmt.Errorf("graph: stream spec has negative N")
	}
	blocks := newBlockRunner(s)
	// Pass 1: count degrees into counts[v+1] so the in-place prefix sum
	// lands each vertex's start at off[v]. Endpoint validation happens
	// here, once; pass 2 trusts the (deterministic) emitter. After the
	// first invalid edge the pass ignores the rest, so the error reported
	// is the first in emission order.
	counts := make([]uint32, n+1)
	var m int64
	var emitErr error
	blocks.replay(func(u, v Vertex) {
		if emitErr != nil {
			return
		}
		if u == v || uint(u) >= uint(n) || uint(v) >= uint(n) { // negatives wrap high
			emitErr = badEdge(u, v, n)
			return
		}
		counts[int(u)+1]++
		counts[int(v)+1]++
		m++
	}, func(edges [][2]Vertex) {
		if emitErr != nil {
			return
		}
		for _, e := range edges {
			u, v := e[0], e[1]
			if u == v || uint(u) >= uint(n) || uint(v) >= uint(n) {
				emitErr = badEdge(u, v, n)
				return
			}
			counts[int(u)+1]++
			counts[int(v)+1]++
		}
		m += int64(len(edges))
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
	blocks.replay(func(u, v Vertex) {
		neighbors[off.inc(int(u), 1)] = v
		neighbors[off.inc(int(v), 1)] = u
		placed++
	}, func(edges [][2]Vertex) {
		for _, e := range edges {
			neighbors[off.inc(int(e[0]), 1)] = e[1]
			neighbors[off.inc(int(e[1]), 1)] = e[0]
		}
		placed += int64(len(edges))
	})
	if placed != m {
		return nil, fmt.Errorf("graph: stream spec %q emitted %d edges on replay, expected %d", s.Name, placed, m)
	}
	for v := n; v >= 1; v-- {
		off.set(v, off.at(v-1))
	}
	off.set(0, 0)

	// Sort each segment in place and reject duplicates, matching the
	// Builder's per-vertex sorted layout exactly. Each shard stops at its
	// first duplicate, so the lowest failing shard holds the lowest vertex.
	shards := par.Shards(n, sortGrain)
	errs := make([]error, shards)
	par.DoN(shards, n, func(shard, lo, hi int) {
		for v := lo; v < hi; v++ {
			a, b := off.span(Vertex(v))
			seg := neighbors[a:b]
			slices.Sort(seg)
			for i := 1; i < len(seg); i++ {
				if seg[i] == seg[i-1] {
					errs[shard] = fmt.Errorf("graph: duplicate edge {%d,%d}", v, seg[i])
					return
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return &Graph{
		off:       off,
		neighbors: neighbors,
		name:      s.Name,
		landmarks: s.Landmarks,
	}, nil
}

// badEdge describes an edge that pass 1 rejects.
func badEdge(u, v Vertex, n int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
}

// sortGrain is the fewest vertices a parallel sort shard takes.
const sortGrain = 1 << 12

// edgeBufCap is the edges a block buffer holds before it grows: room for
// the blocks of about gnpBlockEdges edges that gnp and chunglu cut, so the
// buffers are allocated once per build instead of growing through a trail
// of garbage that would count against the build's heap.
const edgeBufCap = gnpBlockEdges + gnpBlockEdges/4

// edgeBuf holds one block's edges on their way from a sampling worker to
// the applying goroutine. add is built once per buffer, so handing it to
// Emit allocates nothing per block.
type edgeBuf struct {
	block int
	edges [][2]Vertex
	add   func(u, v Vertex)
}

// blockRunner replays a spec's blocks for both passes of one build; its
// buffers are shared by the passes.
type blockRunner struct {
	emit    func(block int, emit func(u, v Vertex))
	blocks  int
	workers int
	free    chan *edgeBuf   // buffers not holding an unapplied block; room for all, so a return never blocks
	ready   []chan *edgeBuf // ready[b%len] carries block b to the applier
}

// newBlockRunner sizes the runner to min(processors, blocks) workers.
func newBlockRunner(s StreamSpec) *blockRunner {
	r := &blockRunner{emit: s.Emit, blocks: max(s.Blocks, 1)}
	r.workers = min(par.Procs(), r.blocks)
	if r.workers <= 1 {
		return r
	}
	// One buffer per worker plus one, so a worker that finishes ahead of
	// the block being applied can start its next block.
	nbuf := r.workers + 1
	r.free = make(chan *edgeBuf, nbuf)
	r.ready = make([]chan *edgeBuf, nbuf)
	for i := range nbuf {
		b := &edgeBuf{edges: make([][2]Vertex, 0, edgeBufCap)}
		b.add = func(u, v Vertex) { b.edges = append(b.edges, [2]Vertex{u, v}) }
		r.free <- b
		r.ready[i] = make(chan *edgeBuf, 1)
	}
	return r
}

// replay runs every block once and hands its edges to the calling
// goroutine, block after block in index order: to edge one at a time when
// the emitter runs inline, to block a buffer at a time when workers
// sample. The two must do the same; block exists so that applying a
// buffer costs one call, not one per edge. The workers replay starts have
// exited by the time it returns.
//
// A worker takes a free buffer *before* it claims the next block index.
// Claiming first would deadlock once there are more blocks than buffers:
// a worker could hold the block the applier waits for while every buffer
// sits filled with a later block. Taking first also keeps the ready ring
// safe: were block b−nbuf still unapplied when b is claimed, it and every
// block after it up to b would each hold a buffer, one more than exist,
// so b's slot b%nbuf is always empty when b is sent. Each buffer carries
// its block index, and the applier checks it.
func (r *blockRunner) replay(edge func(u, v Vertex), block func(edges [][2]Vertex)) {
	if r.workers <= 1 {
		for b := range r.blocks {
			r.emit(b, edge)
		}
		return
	}
	nbuf := len(r.ready)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				buf := <-r.free
				b := int(next.Add(1) - 1)
				if b >= r.blocks {
					r.free <- buf
					return
				}
				buf.block, buf.edges = b, buf.edges[:0]
				r.emit(b, buf.add)
				r.ready[b%nbuf] <- buf
			}
		}()
	}
	for b := range r.blocks {
		buf := <-r.ready[b%nbuf]
		if buf.block != b {
			panic(fmt.Sprintf("graph: block %d arrived in block %d's slot", buf.block, b))
		}
		block(buf.edges)
		r.free <- buf
	}
	wg.Wait()
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
