package graph

// Width-adaptive CSR storage.
//
// The row-offset array is the per-vertex overhead of the CSR form. Stored
// as []int64 it costs 8 B/vertex regardless of graph size; every graph the
// paper uses — and every graph below 2³¹ neighbor slots — fits its offsets
// in uint32, halving that overhead. offsetStore keeps whichever width the
// endpoint count requires and is the single point through which the rest
// of the package reads offsets, so the width decision never leaks into
// callers (and an mmap-backed graph can alias either width directly from
// its on-disk encoding).

// offsetStore holds the CSR row-offset array (length N+1) in the
// narrowest width that fits: uint32 when the endpoint count (2M) is below
// 2³², int64 otherwise. Exactly one of o32/o64 is non-nil.
type offsetStore struct {
	o32 []uint32
	o64 []int64
}

// newOffsetStore allocates a zeroed offset array for n vertices whose
// final entry will be `endpoints` (= 2M), choosing the narrow width
// whenever every offset fits in uint32.
func newOffsetStore(n int, endpoints int64) offsetStore {
	if endpoints < 1<<32 {
		return offsetStore{o32: make([]uint32, n+1)}
	}
	return offsetStore{o64: make([]int64, n+1)}
}

// widenOffsets turns the streaming builder's uint32 degree counts into the
// offset store for a graph with `endpoints` (= 2M) slots: the counts
// themselves when every offset fits uint32, otherwise an int64 copy made
// before the neighbor array exists, the narrow array left to the collector.
func widenOffsets(counts []uint32, endpoints int64) offsetStore {
	if endpoints < 1<<32 {
		return offsetStore{o32: counts}
	}
	o64 := make([]int64, len(counts))
	for i, c := range counts {
		o64[i] = int64(c)
	}
	return offsetStore{o64: o64}
}

// len returns the array length (N+1), or 0 for the zero value.
func (o offsetStore) len() int {
	if o.o32 != nil {
		return len(o.o32)
	}
	return len(o.o64)
}

// at returns offset i.
func (o offsetStore) at(i int) int64 {
	if o.o32 != nil {
		return int64(o.o32[i])
	}
	return o.o64[i]
}

// set stores offset i. The caller is responsible for v fitting the width
// chosen at allocation (newOffsetStore and widenOffsets pick it from the
// final endpoint count, so monotone fills cannot overflow).
func (o offsetStore) set(i int, v int64) {
	if o.o32 != nil {
		o.o32[i] = uint32(v)
		return
	}
	o.o64[i] = v
}

// inc adds d to offset i and returns the pre-increment value — the
// placement cursor of the streaming builder's second pass.
func (o offsetStore) inc(i int, d int64) int64 {
	if o.o32 != nil {
		v := o.o32[i]
		o.o32[i] = v + uint32(d)
		return int64(v)
	}
	v := o.o64[i]
	o.o64[i] = v + d
	return v
}

// span returns the neighbor-array range [lo, hi) of vertex v as ints
// (endpoint counts fit int on 64-bit platforms, which the simulator
// requires anyway: slice lengths are ints).
func (o offsetStore) span(v Vertex) (lo, hi int) {
	if o.o32 != nil {
		return int(o.o32[v]), int(o.o32[v+1])
	}
	return int(o.o64[v]), int(o.o64[v+1])
}

// wide reports whether the 8-byte width is in use.
func (o offsetStore) wide() bool { return o.o64 != nil }

// bytes returns the storage footprint of the offset array.
func (o offsetStore) bytes() int64 {
	if o.o32 != nil {
		return int64(len(o.o32)) * 4
	}
	return int64(len(o.o64)) * 8
}

// vertexBytes returns the per-vertex offset cost of the active width (4
// or 8), for memory-envelope reporting.
func (o offsetStore) vertexBytes() int64 {
	if o.o32 != nil {
		return 4
	}
	return 8
}

// CSRBytes returns the storage footprint of the graph's CSR arrays
// (offsets + neighbors), independent of whether they live on the heap or
// alias an mmap'd file. It is the size the versioned binary encoding's
// array sections occupy, and the denominator of the construction-peak
// budget the streaming builder is held to.
func (g *Graph) CSRBytes() int64 {
	return g.off.bytes() + int64(len(g.neighbors))*4
}

// OffsetWidth returns the bytes per offset entry in use (4 or 8), for
// memory-envelope reporting.
func (g *Graph) OffsetWidth() int { return int(g.off.vertexBytes()) }

// MmapBacked reports whether the CSR arrays alias a read-only memory
// mapping rather than the heap.
func (g *Graph) MmapBacked() bool { return g.backing != nil }

// MemoryCost estimates the heap bytes keeping this graph resident pins:
// the CSR arrays when heap-backed (an mmap-backed graph's pages are
// reclaimable file cache and charge nothing), plus the packed walk index
// the hot paths will lazily build for index-eligible graphs. The alias
// table (agent placement) is deliberately not charged: it only exists for
// graphs agent protocols ran on, and charging it for every resident graph
// would evict cache entries that never pay it. The estimate is stable
// over the graph's lifetime, which the byte-cost-aware cache requires.
func (g *Graph) MemoryCost() int64 {
	c := int64(4096) // struct, landmarks, name, slice headers
	if g.backing == nil {
		c += g.CSRBytes()
	}
	if g.walkIndexEligible() {
		c += int64(g.N()) * 8
	}
	return c
}
