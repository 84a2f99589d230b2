package graph

import (
	"fmt"
	"math"
	"unsafe"

	"rumor/internal/xrand"
)

// Seeded, replayable edge-stream samplers for the random graph families.
//
// The streaming two-pass builder (stream.go) needs its emitter to produce
// the same edge set on every pass. Deterministic families get that for
// free; the random families get it from counter-based randomness: every
// draw a sampler makes comes from an xrand.Stream keyed by (seed, family
// lane, attempt), so reconstructing the stream replays bit-identical
// draws. A sampler keyed (spec, seed) is therefore a *deterministic*
// edge emitter — pass 1 counts degrees, pass 2 places endpoints — and
// random families inherit the builder's peak-heap ≈ 1.0× final CSR
// envelope that previously only deterministic families had.
//
// Auxiliary sampler state that must survive across passes (the
// configuration-model stub array, the preferential-attachment target
// array, chunglu's weight table) lives in a scratch buffer backed by an
// unlinked temp-file mapping once it is large, so it never counts
// against the Go heap during the build (see mapScratch).
//
// Stream keys. gnp and chunglu split their edges into blocks that the
// builder samples in parallel (stream.go), so each block draws from its
// own key and never from a stream another block advanced:
//
//	gnp      block b — a fixed span of the pair index, a function of
//	         (n, p) alone — draws from (seed, "gnp", b). A gnp of at most
//	         about gnpBlockEdges expected edges is one block, keyed
//	         exactly as the single-stream walk of versions 1 and 2 was.
//	chunglu  row i draws from (seed, "cl", i), whatever block holds it,
//	         so the builder cuts blocks wherever it balances the work.
//	randreg, ba
//	         one block, one stream per restart attempt.
//
// Per family:
//
//	gnp      geometric skip-sampling over the linearized pair index —
//	         O(m) expected draws instead of O(n²) coin flips, no state.
//	randreg  configuration model: stubs shuffled and paired left to
//	         right in scratch, invalid partners redrawn in place (a
//	         Bloom filter with no false negatives rejects duplicate
//	         edges), deterministic counter-keyed full restarts on the
//	         rare dead end.
//	ba       Batagelj–Brandes-style preferential attachment: the target
//	         array is the only auxiliary state; the degree-proportional
//	         pool is resolved analytically (clique pairs and attachment
//	         sources are arithmetic, earlier targets are array reads).
//	chunglu  Miller–Hagberg per-vertex skip sampling over decreasing
//	         weights, each power computed once into an n-entry table
//	         that both emitter runs read.

// Stream-key lanes separating each family's draws (and, within randreg,
// each restart attempt) at a shared seed.
const (
	gnpStreamUnit     = 0x67_6e_70 // "gnp"
	rrStreamUnit      = 0x72_72    // "rr"
	baStreamUnit      = 0x62_61    // "ba"
	chungluStreamUnit = 0x63_6c    // "cl"
)

// RandomSamplerVersion identifies the generation of the edge-stream
// samplers above. It is baked into every seeded spill key (SeededKey), so
// content-addressed graph caches can never serve a realization produced
// by a different sampler algorithm for the same (spec, seed): any change
// to a sampler's draw sequence must bump this constant.
//
// Version 2 saturates the geometric skip (gnp at p below about 4·10⁻¹⁸
// used to wrap to a skip of 1 and build spurious edges), so no
// realization spilled by version 1 is ever served again. Version 3 keys
// gnp by block and chunglu by row (see above): every chunglu realization
// and every gnp of more than one block changed; single-block gnp,
// randreg and barabasi realizations did not.
const RandomSamplerVersion = 3

// SeededKey returns the content-address key for one realization of a
// random spec: the canonical spec plus the sampler seed plus the sampler
// version. Deterministic specs are keyed by canonical form alone; random
// specs must use this key for any cross-process cache (disk store, memo)
// so distinct seeds — and distinct sampler generations — never collide.
func SeededKey(canonicalSpec string, seed uint64) string {
	return fmt.Sprintf("%s@seed=%016x;sampler=v%d", canonicalSpec, seed, RandomSamplerVersion)
}

// scratch is a width-adaptive vertex-id array for sampler auxiliary
// state: uint16 entries when every vertex id fits (n ≤ 2¹⁶), uint32
// otherwise. Small buffers live on the heap; large ones alias an
// unlinked temp-file mapping so a giant build's auxiliary state is
// reclaimable file cache, not heap (the giant harness pins build peak
// *heap* at ≤ 1.1× the final CSR). Callers release() when done.
type scratch struct {
	m   *mapping
	u16 []uint16
	u32 []uint32
	f64 []float64 // newFloatScratch only
}

// scratchHeapMax is the largest scratch kept heap-resident. Above it the
// buffer is file-backed; below it the mapping overhead isn't worth it.
const scratchHeapMax = 32 << 20

// newScratch allocates a zeroed scratch of count entries for vertex ids
// below n.
func newScratch(n int, count int64) *scratch {
	st := &scratch{}
	if count == 0 {
		return st
	}
	wide := n > 1<<16
	width := int64(2)
	if wide {
		width = 4
	}
	st.m = offHeap(count * width)
	switch {
	case st.m != nil && wide:
		st.u32 = unsafe.Slice((*uint32)(unsafe.Pointer(&st.m.data[0])), count)
	case st.m != nil:
		st.u16 = unsafe.Slice((*uint16)(unsafe.Pointer(&st.m.data[0])), count)
	case wide:
		st.u32 = make([]uint32, count)
	default:
		st.u16 = make([]uint16, count)
	}
	return st
}

// newFloatScratch allocates a zeroed scratch of count float64 entries,
// read and written through f64, under the same heap-or-mapping rule.
func newFloatScratch(count int) *scratch {
	st := &scratch{m: offHeap(int64(count) * 8)}
	if st.m != nil {
		st.f64 = unsafe.Slice((*float64)(unsafe.Pointer(&st.m.data[0])), count)
	} else {
		st.f64 = make([]float64, count)
	}
	return st
}

// offHeap returns a file-backed mapping of size bytes when size exceeds
// scratchHeapMax, or nil when the buffer belongs on the heap.
func offHeap(size int64) *mapping {
	if size <= scratchHeapMax {
		return nil
	}
	m, err := mapScratch(int(size))
	if err != nil {
		// Mapping failed (exotic tmpfs, fd limits): degrade to heap. The
		// build still works; only the off-heap property is lost.
		return nil
	}
	return m
}

// at returns entry i.
func (s *scratch) at(i int64) Vertex {
	if s.u16 != nil {
		return Vertex(s.u16[i])
	}
	return Vertex(s.u32[i])
}

// set stores entry i.
func (s *scratch) set(i int64, v Vertex) {
	if s.u16 != nil {
		s.u16[i] = uint16(v)
		return
	}
	s.u32[i] = uint32(v)
}

// swap exchanges entries i and j.
func (s *scratch) swap(i, j int64) {
	if s.u16 != nil {
		s.u16[i], s.u16[j] = s.u16[j], s.u16[i]
		return
	}
	s.u32[i], s.u32[j] = s.u32[j], s.u32[i]
}

// release unmaps any file backing and drops the slices. The scratch must
// not be used afterwards.
func (s *scratch) release() {
	s.u16, s.u32, s.f64 = nil, nil, nil
	if s.m != nil {
		s.m.close()
		s.m = nil
	}
}

// bloom is a 3-probe Bloom filter over edge keys, used by the randreg
// sampler to reject duplicate edges during pairing. No false negatives:
// a pairing that survives it is guaranteed simple. False positives
// (≈6% at the ~6 bits/edge sizing) merely cause a benign, deterministic
// partner redraw.
type bloom struct {
	words []uint64
	mask  uint64
}

// newBloom sizes the filter at roughly 6 bits per expected edge, rounded
// up to a power of two — small enough that the filter (the pairing's only
// heap-resident aux structure; the stub array is file-backed) stays well
// inside the streaming build's 1.1x-of-CSR peak-heap envelope even at
// 10M-vertex scales.
func newBloom(m int64) *bloom {
	bits := uint64(64)
	for int64(bits) < 6*m {
		bits <<= 1
	}
	return &bloom{words: make([]uint64, bits/64), mask: bits - 1}
}

func (b *bloom) probes(key uint64) (p1, p2, p3 uint64) {
	h1 := xrand.Mix(key)
	h2 := xrand.Mix(key^0x9e3779b97f4a7c15) | 1
	return h1 & b.mask, (h1 + h2) & b.mask, (h1 + 2*h2) & b.mask
}

func (b *bloom) contains(key uint64) bool {
	p1, p2, p3 := b.probes(key)
	return b.words[p1>>6]&(1<<(p1&63)) != 0 &&
		b.words[p2>>6]&(1<<(p2&63)) != 0 &&
		b.words[p3>>6]&(1<<(p3&63)) != 0
}

func (b *bloom) add(key uint64) {
	p1, p2, p3 := b.probes(key)
	b.words[p1>>6] |= 1 << (p1 & 63)
	b.words[p2>>6] |= 1 << (p2 & 63)
	b.words[p3>>6] |= 1 << (p3 & 63)
}

// edgeKey packs an unordered vertex pair into one comparable word.
func edgeKey(u, v Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// ErdosRenyi samples G(n, p) through the streaming builder using
// geometric skip-sampling: pairs (i, j), i < j, are linearized and the
// sampler jumps between present edges in Geometric(p) steps — O(m)
// expected draws, O(1) sampler state, peak heap equal to the final CSR.
// The same (n, p, seed) always yields the same graph.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs n >= 1")
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi needs p in [0,1], got %g", p)
	}
	return BuildStream(gnpSpec(n, p, seed))
}

// gnpBlockEdges is the expected edge count of one gnp block. Its buffer
// (8 bytes an edge) is what the parallel build holds per block in flight.
const gnpBlockEdges = 1 << 13

// gnpSpan cuts gnp's total pairs into blocks of span pairs each,
// ⌈gnpBlockEdges/p⌉, the last one shorter. The cut depends on (n, p)
// alone, so it is part of the realization: a gnp whose span covers every
// pair is one block.
func gnpSpan(total int64, p float64) (span int64, blocks int) {
	s := math.Ceil(gnpBlockEdges / p)
	if !(s < float64(total)) { // p = 0 gives +Inf
		return total, 1
	}
	span = int64(s)
	return span, int((total + span - 1) / span)
}

func gnpSpec(n int, p float64, seed uint64) StreamSpec {
	total := int64(n) * int64(n-1) / 2
	span, blocks := gnpSpan(total, p)
	return StreamSpec{
		N:      n,
		Name:   fmt.Sprintf("gnp(%d,%g)", n, p),
		Blocks: blocks,
		// Block b walks the pair indices [b·span, (b+1)·span) with its own
		// stream, replaying identical draws on every call, so the count
		// pass and the placement pass see the same edge set.
		Emit: func(b int, emit func(u, v Vertex)) {
			if p <= 0 || total == 0 {
				return
			}
			s := xrand.NewStream(seed, gnpStreamUnit, uint64(b))
			logQ := xrand.LogQ(p)
			lo := int64(b) * span
			end := min(lo+span, total)
			// The walk visits strictly increasing indices, so the row
			// pointer only ever moves forward: unranking is one binary
			// search per block plus O(rows + edges), not one per edge.
			i := pairRow(lo, n)
			rowEnd := rowStart(i+1, n)
			for idx := lo - 1; ; {
				// A skip saturates at MaxInt64, so it is compared with what
				// is left of the index range before it is added.
				skip := s.GeometricLogQ(logQ)
				if skip >= end-idx {
					return
				}
				idx += skip
				for idx >= rowEnd {
					i++
					rowEnd += int64(n - 1 - i)
				}
				j := int64(i+1) + idx - (rowEnd - int64(n-1-i))
				emit(Vertex(i), Vertex(j))
			}
		},
	}
}

// randomRegular samples a random d-regular simple graph on n vertices via
// a replayable two-pass configuration model: stubs are shuffled and
// paired left to right inside a scratch buffer, partners that would form
// a self-loop or duplicate edge are redrawn in place (a Bloom filter
// guarantees no duplicate survives), and the rare unresolvable tail
// triggers a deterministic counter-keyed restart. Requires n·d even and
// 0 < d < n.
func randomRegular(n, d int, seed uint64) (*Graph, error) {
	if err := randRegDomain(n, d); err != nil {
		return nil, err
	}
	m := int64(n) * int64(d) / 2
	const maxRestarts = 64
	for attempt := uint64(0); attempt < maxRestarts; attempt++ {
		st, ok := randRegPairing(n, d, m, seed, attempt)
		if !ok {
			continue
		}
		g, err := BuildStream(StreamSpec{
			N:    n,
			M:    m,
			Name: fmt.Sprintf("randreg(%d,%d)", n, d),
			Emit: func(_ int, emit func(u, v Vertex)) {
				for k := int64(0); k < m; k++ {
					emit(st.at(2*k), st.at(2*k+1))
				}
			},
		})
		st.release()
		return g, err
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d,%d) failed after %d restarts", n, d, maxRestarts)
}

// randRegDomain rejects (n, d) the configuration model cannot pair.
func randRegDomain(n, d int) error {
	if d <= 0 || d >= n {
		return fmt.Errorf("graph: RandomRegular needs 0 < d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return fmt.Errorf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d)
	}
	return nil
}

// randRegPairing samples one configuration-model pairing into scratch:
// entries (2k, 2k+1) are edge k's endpoints. ok is false on a dead end
// (some stub cannot find a valid partner), telling the caller to restart
// with the next attempt key.
func randRegPairing(n, d int, m int64, seed, attempt uint64) (st *scratch, ok bool) {
	st = newScratch(n, 2*m)
	idx := int64(0)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			st.set(idx, Vertex(v))
			idx++
		}
	}
	// The attempt index is the stream's round key, so restarts draw fresh
	// randomness without touching the caller's seed derivation.
	s := xrand.NewStream(seed, rrStreamUnit, attempt)
	for i := 2*m - 1; i > 0; i-- {
		st.swap(i, int64(s.IntN(int(i+1))))
	}
	// Pair left to right. The Bloom filter has no false negatives, so any
	// pairing that completes is simple; false positives just redraw a
	// partner that would have been fine.
	filter := newBloom(m)
	const maxTries = 256
	for k := int64(0); k < m; k++ {
		u := st.at(2 * k)
		limit := int(2*m - (2*k + 1))
		paired := false
		for try := 0; try < maxTries; try++ {
			v := st.at(2*k + 1)
			if u != v && !filter.contains(edgeKey(u, v)) {
				filter.add(edgeKey(u, v))
				paired = true
				break
			}
			st.swap(2*k+1, 2*k+1+int64(s.IntN(limit)))
		}
		if !paired {
			st.release()
			return nil, false
		}
	}
	return st, true
}

// RandomRegularConnected samples a connected random d-regular graph: it
// retries the configuration model with derived seeds until the sample is
// connected (at most 32 attempts). For d >= 3 almost every sample is
// connected, so this nearly always returns the first sample. IsConnected
// keeps O(n/8) bytes of heap state, so the check stays inside the
// giant-build heap envelope. Requires n·d even and 0 < d < n.
func RandomRegularConnected(n, d int, seed uint64) (*Graph, error) {
	for attempt := 0; attempt < 32; attempt++ {
		g, err := randomRegular(n, d, xrand.Derive(seed, attempt))
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected %d-regular sample on %d vertices after 32 tries", d, n)
}

// BarabasiAlbert samples a preferential-attachment graph through the
// streaming builder: seed clique on m+1 vertices, then each new vertex
// attaches to m distinct existing vertices chosen uniformly from the
// endpoint multiset of all earlier edges (degree-proportional). This is
// the classic social-network model on which push-pull is provably much
// faster than push (Doerr, Fouz & Friedrich [17]; Chierichetti et al.
// [12]) — the observation the paper's introduction cites.
//
// In the Batagelj–Brandes manner the endpoint pool is never
// materialized: a pool position resolves analytically — clique endpoints
// and attachment sources are arithmetic, earlier attachment targets are
// reads from the width-adaptive target array, which is the sampler's
// only auxiliary state. Landmark: "hub" (vertex 0).
func BarabasiAlbert(n, m int, seed uint64) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs m >= 1")
	}
	if n < m+2 {
		return nil, fmt.Errorf("graph: BarabasiAlbert needs n >= m+2, got n=%d m=%d", n, m)
	}
	cliqueN := m + 1
	cq := cliqueEdges(cliqueN)
	attach := int64(n-cliqueN) * int64(m)
	targets := newScratch(n, attach)
	// resolve maps a position in the virtual endpoint pool (edge e
	// contributes positions 2e and 2e+1, in emission order: clique pairs
	// lexicographically, then attachment edges in draw order) to the
	// vertex standing there.
	resolve := func(pos int64) Vertex {
		if pos < 2*cq {
			u, v := pairFromIndex(pos/2, cliqueN)
			if pos%2 == 0 {
				return u
			}
			return v
		}
		q := pos - 2*cq
		e := q / 2
		if q%2 == 0 {
			return Vertex(cliqueN + int(e)/m)
		}
		return targets.at(e)
	}
	s := xrand.NewStream(seed, baStreamUnit, 0)
	chosen := make([]Vertex, 0, m)
	var placed int64
	for v := cliqueN; v < n; v++ {
		// Every vertex below v is in the pool and v is not, so draws can
		// produce neither self-loops nor edges to future vertices.
		pool := 2 * (cq + placed)
		chosen = chosen[:0]
		for len(chosen) < m {
			t := resolve(int64(s.IntN(int(pool))))
			if !containsVertex(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			targets.set(placed, t)
			placed++
		}
	}
	g, err := BuildStream(StreamSpec{
		N:    n,
		M:    cq + attach,
		Name: fmt.Sprintf("barabasi(%d,%d)", n, m),
		Emit: func(_ int, emit func(u, v Vertex)) {
			emitClique(emit, 0, cliqueN)
			for e := int64(0); e < attach; e++ {
				emit(Vertex(cliqueN+int(e)/m), targets.at(e))
			}
		},
		Landmarks: map[string]Vertex{"hub": 0},
	})
	targets.release()
	return g, err
}

// rowStart returns the linear index of row i's first pair in the
// row-major order of {(i,j) : 0 <= i < j < n}: the i*n - i*(i+1)/2 pairs
// of the rows before it.
func rowStart(i, n int) int64 {
	return int64(i)*int64(n) - int64(i)*int64(i+1)/2
}

// pairRow returns the row of linear pair index idx, by binary search over
// the row starts.
func pairRow(idx int64, n int) int {
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if rowStart(mid, n) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// pairFromIndex maps a linear index over {(i,j) : 0 <= i < j < n} in
// row-major order back to the pair.
func pairFromIndex(idx int64, n int) (Vertex, Vertex) {
	i := pairRow(idx, n)
	return Vertex(i), Vertex(i + 1 + int(idx-rowStart(i, n)))
}

func containsVertex(vs []Vertex, v Vertex) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// ChungLu samples a Chung-Lu power-law expected-degree graph (weight
// w_i ∝ (i+1)^(−1/(β−1)) scaled to the requested average degree, edge
// {i,j} present with probability min(1, w_i·w_j/Σw)) through the
// streaming builder via Miller–Hagberg per-vertex skip sampling: for
// each i the partners j > i are visited in Geometric jumps under the
// current probability bound, thinned to the exact probability as the
// decreasing weights tighten the bound. The sampler's one per-vertex
// array is the table of the n powers (i+1)^(−1/(β−1)), computed once by
// the weight sum and held as scratch (off the heap above scratchHeapMax)
// until the build returns. O(n + m) expected draws; β must exceed 2 for
// a finite mean.
func ChungLu(n int, beta, avgDeg float64, seed uint64) (*Graph, error) {
	if err := chungLuDomain(n, beta, avgDeg); err != nil {
		return nil, err
	}
	spec, release := chungluSpec(n, beta, avgDeg, seed)
	defer release()
	return BuildStream(spec)
}

// chungLuDomain is ChungLu's parameter domain, checked by the generator
// and at parse time.
func chungLuDomain(n int, beta, avgDeg float64) error {
	if n < 2 {
		return fmt.Errorf("graph: ChungLu needs n >= 2, got %d", n)
	}
	if beta <= 2 {
		return fmt.Errorf("graph: ChungLu needs beta > 2, got %g", beta)
	}
	if avgDeg <= 0 || avgDeg >= float64(n) {
		return fmt.Errorf("graph: ChungLu needs 0 < avgDeg < n, got %g", avgDeg)
	}
	return nil
}

// chungluBlockWeight is the weight mass of one chunglu block. Row i
// expects at most w_i edges to later rows, so a block expects at most
// this many edges, and about half of it on average.
const chungluBlockWeight = gnpBlockEdges

// chungluSpec returns chunglu's stream spec and the release of its power
// table, which the spec's emitter reads until then.
func chungluSpec(n int, beta, avgDeg float64, seed uint64) (StreamSpec, func()) {
	exp := -1 / (beta - 1)
	pt := newFloatScratch(n)
	pw := pt.f64
	sum := 0.0
	for i := range pw {
		pw[i] = math.Pow(float64(i+1), exp)
		sum += pw[i]
	}
	scale := avgDeg * float64(n) / sum
	total := avgDeg * float64(n) // Σ of the scaled weights
	w := func(i int) float64 { return scale * pw[i] }
	starts := chungluBlockStarts(n, 1+exp, scale)
	return StreamSpec{
		N:      n,
		Name:   fmt.Sprintf("chunglu(%d,%.1f,%.1f)", n, beta, avgDeg),
		Blocks: len(starts) - 1,
		Emit: func(b int, emit func(u, v Vertex)) {
			wi := w(starts[b])
			for i := starts[b]; i < starts[b+1]; i++ {
				s := xrand.NewStream(seed, chungluStreamUnit, uint64(i))
				// Row i's first-partner weight is row i+1's own weight.
				wn := w(i + 1)
				j := i + 1
				p := math.Min(1, wi*wn/total)
				for j < n && p > 0 {
					if p < 1 {
						// A skip saturates at MaxInt64, so it is compared
						// with the partners left in the row before it is
						// added: j+skip-1 >= n exactly when skip > n-j.
						skip := s.Geometric64(p)
						if skip > int64(n-j) {
							break
						}
						j += int(skip) - 1
					}
					q := math.Min(1, wi*w(j)/total)
					// The skip accepted at rate p; thin to the exact q ≤ p.
					if s.Float64()*p < q {
						emit(Vertex(i), Vertex(j))
					}
					p = q
					j++
				}
				wi = wn
			}
		},
	}, pt.release
}

// chungluBlockStarts cuts chunglu's rows 0..n−2 into blocks of about
// chungluBlockWeight weight each, returning each block's first row and
// then n−1. The cuts fall where the integral of the weight curve,
// ∫₀ᵏ scale·(t+1)^(e−1) dt = scale·((k+1)^e − 1)/e, crosses a multiple of
// the block weight; a row heavier than a block is a block of its own.
// They only balance the work: every row draws from a stream of its own,
// so no cut changes the realization.
func chungluBlockStarts(n int, e, scale float64) []int {
	starts := []int{0}
	for c := float64(chungluBlockWeight); ; c += chungluBlockWeight {
		k := math.Pow(1+e*c/scale, 1/e) - 1
		if !(k < float64(n-1)) { // +Inf once the power overflows
			break
		}
		if r := int(k); r > starts[len(starts)-1] {
			starts = append(starts, r)
		}
	}
	return append(starts, n-1)
}
