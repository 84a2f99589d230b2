package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/par"
)

// buildLegacy replays a StreamSpec's edges through the slice-of-slices
// Builder, the construction path the streaming builder replaced. The
// property tests pin the two paths byte-identical.
func buildLegacy(t testing.TB, s StreamSpec) *Graph {
	t.Helper()
	b := NewBuilder(s.N, s.Name)
	var emitErr error
	for block := range max(s.Blocks, 1) {
		s.Emit(block, func(u, v Vertex) {
			if err := b.AddEdge(u, v); err != nil && emitErr == nil {
				emitErr = err
			}
		})
	}
	if emitErr != nil {
		t.Fatalf("legacy build: %v", emitErr)
	}
	for name, v := range s.Landmarks {
		b.SetLandmark(name, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("legacy build: %v", err)
	}
	return g
}

func encodeCSRBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeCSR(&buf); err != nil {
		t.Fatalf("EncodeCSR: %v", err)
	}
	return buf.Bytes()
}

// deterministicSpecs enumerates every deterministic family at a few
// parameter points, including shapes that stress each emitter: minimum
// sizes, power-of-two boundaries, and asymmetric grids.
func deterministicSpecs() []StreamSpec {
	return []StreamSpec{
		starSpec(1), starSpec(2), starSpec(100),
		doubleStarSpec(1), doubleStarSpec(17),
		heavyBinaryTreeSpec(2), heavyBinaryTreeSpec(5),
		siameseHeavyTreeSpec(2), siameseHeavyTreeSpec(5),
		cycleStarsCliquesSpec(3), cycleStarsCliquesSpec(5),
		completeSpec(2), completeSpec(9),
		cycleSpec(3), cycleSpec(10),
		pathSpec(2), pathSpec(11),
		binaryTreeSpec(1), binaryTreeSpec(6),
		hypercubeSpec(1), hypercubeSpec(6),
		torus2DSpec(3, 3), torus2DSpec(4, 7),
		grid2DSpec(1, 2), grid2DSpec(5, 3),
		ringOfCliquesSpec(3, 2), ringOfCliquesSpec(5, 4),
		cliquePathSpec(2, 2), cliquePathSpec(6, 5),
	}
}

// TestStreamMatchesBuilderByteIdentical is the seam-pinning property:
// for every deterministic family, the streaming two-pass builder and the
// legacy Builder produce graphs whose binary CSR encodings are
// byte-for-byte equal, so switching the generators over cannot have
// changed a single offset, neighbor, landmark, or name anywhere.
func TestStreamMatchesBuilderByteIdentical(t *testing.T) {
	for _, spec := range deterministicSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			streamed, err := BuildStream(spec)
			if err != nil {
				t.Fatalf("BuildStream: %v", err)
			}
			if err := streamed.Validate(); err != nil {
				t.Fatalf("streamed graph invalid: %v", err)
			}
			legacy := buildLegacy(t, spec)
			sb, lb := encodeCSRBytes(t, streamed), encodeCSRBytes(t, legacy)
			if !bytes.Equal(sb, lb) {
				t.Fatalf("streamed and legacy CSR encodings differ (%d vs %d bytes)", len(sb), len(lb))
			}
		})
	}
}

// TestStreamUnknownEdgeCount checks that a spec declaring M=0 needs no
// extra run: the degree-count pass learns the edge count as it goes.
func TestStreamUnknownEdgeCount(t *testing.T) {
	spec := completeSpec(7)
	spec.M = 0
	g, err := BuildStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 21 {
		t.Fatalf("M = %d, want 21", g.M())
	}
}

// atProcs runs f at GOMAXPROCS procs with par's cached processor count
// refreshed, so BuildStream really starts that many workers, and restores
// both afterwards.
func atProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(procs)
	par.Refresh()
	defer func() {
		runtime.GOMAXPROCS(prev)
		par.Refresh()
	}()
	f()
}

// TestStreamTwoEmitterRuns pins the builder's pass count: every block is
// emitted exactly twice, one counting run and one placing run, whether M
// is declared or learned and at any worker count.
func TestStreamTwoEmitterRuns(t *testing.T) {
	undeclared := completeSpec(7)
	undeclared.M = 0
	cl, release := chungluSpec(3000, 2.5, 16, 3)
	defer release()
	specs := []StreamSpec{completeSpec(7), undeclared, gnpSpec(300, 0.05, 3), gnpSpec(400, 0.5, 3), cl}
	for _, spec := range specs[3:] {
		if spec.Blocks < 3 {
			t.Fatalf("%s: %d blocks, want a multi-block point", spec.Name, spec.Blocks)
		}
	}
	for _, procs := range []int{1, 2, 8} {
		for _, spec := range specs {
			runs := make([]atomic.Int32, max(spec.Blocks, 1))
			emit := spec.Emit
			spec.Emit = func(b int, e func(u, v Vertex)) {
				runs[b].Add(1)
				emit(b, e)
			}
			var err error
			atProcs(procs, func() { _, err = BuildStream(spec) })
			if err != nil {
				t.Fatalf("%s (M=%d): %v", spec.Name, spec.M, err)
			}
			for b := range runs {
				if got := runs[b].Load(); got != 2 {
					t.Errorf("%s (M=%d) at %d procs: block %d ran %d times, want 2", spec.Name, spec.M, procs, b, got)
				}
			}
		}
	}
}

// TestStreamBlockErrors holds multi-block builds to the serial error
// contract at every worker count. Self-loops are planted in blocks 3 and
// 7, and block 3 is held back so that parallel workers finish block 7
// first: the error must still name block 3's edge. Duplicates are planted
// at vertices in the first and the last sort shard: the lower vertex is
// reported. A wrong declared M and an emitter that loses an edge on replay
// are caught across blocks.
func TestStreamBlockErrors(t *testing.T) {
	const blocks = 10
	path := func(b int, emit func(u, v Vertex)) { emit(Vertex(b), Vertex(b+1)) }
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			loops := StreamSpec{N: blocks + 1, Blocks: blocks, Name: "loops", Emit: func(b int, emit func(u, v Vertex)) {
				switch b {
				case 3:
					time.Sleep(20 * time.Millisecond)
					emit(3, 3)
				case 7:
					emit(7, 7)
				default:
					path(b, emit)
				}
			}}
			if _, err := BuildStream(loops); err == nil || err.Error() != "graph: self-loop at 3" {
				t.Errorf("%d procs: self-loops in blocks 3 and 7 reported as %v, want block 3's", procs, err)
			}

			const n = 3 * sortGrain
			dups := StreamSpec{N: n, Blocks: blocks, Name: "dups", Emit: func(b int, emit func(u, v Vertex)) {
				switch b {
				case 2:
					emit(n-10, n-9)
					emit(n-9, n-10)
				case 6:
					emit(100, 101)
					emit(101, 100)
				}
			}}
			if _, err := BuildStream(dups); err == nil || err.Error() != "graph: duplicate edge {100,101}" {
				t.Errorf("%d procs: duplicates at vertices 100 and %d reported as %v, want vertex 100's", procs, n-10, err)
			}

			declared := StreamSpec{N: blocks + 1, M: blocks - 1, Blocks: blocks, Name: "declared", Emit: path}
			if _, err := BuildStream(declared); err == nil || !strings.Contains(err.Error(), "declared") {
				t.Errorf("%d procs: wrong declared M reported as %v", procs, err)
			}

			var runs [blocks]atomic.Int32
			lossy := StreamSpec{N: blocks + 1, Blocks: blocks, Name: "lossy", Emit: func(b int, emit func(u, v Vertex)) {
				if runs[b].Add(1) == 2 && b == 5 {
					return
				}
				path(b, emit)
			}}
			if _, err := BuildStream(lossy); err == nil || !strings.Contains(err.Error(), "on replay") {
				t.Errorf("%d procs: an edge lost on replay reported as %v", procs, err)
			}
		})
	}
}

// TestStreamManyTinyBlocks is the deadlock regression of the in-order
// apply: far more one-edge blocks than buffers. A worker that claimed a
// block before taking a buffer could hold the block the applier waits for
// while every buffer holds a later one, or send a later block into the
// ring slot the applier is reading (which the applier rejects). It also
// checks that the build leaves no goroutine behind.
func TestStreamManyTinyBlocks(t *testing.T) {
	const blocks = 20000
	spec := StreamSpec{N: blocks + 1, M: blocks, Blocks: blocks, Name: "path", Emit: func(b int, emit func(u, v Vertex)) {
		emit(Vertex(b), Vertex(b+1))
	}}
	want := encodeCSRBytes(t, buildLegacy(t, spec))
	for _, procs := range []int{2, 8} {
		atProcs(procs, func() {
			for round := range 2 { // the first round starts par's pool
				before := runtime.NumGoroutine()
				done := make(chan *Graph, 1)
				go func() {
					g, err := BuildStream(spec)
					if err != nil {
						t.Error(err)
					}
					done <- g
				}()
				select {
				case g := <-done:
					if g != nil && !bytes.Equal(encodeCSRBytes(t, g), want) {
						t.Fatalf("%d procs: CSR differs from the serial build", procs)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%d procs: %d blocks did not build in 30 s: the in-order apply deadlocked", procs, blocks)
				}
				if round == 0 {
					continue
				}
				// Joined workers may still be on their way out.
				for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
					time.Sleep(10 * time.Millisecond)
				}
				if after := runtime.NumGoroutine(); after > before {
					t.Fatalf("%d procs: %d goroutines before the build, %d after", procs, before, after)
				}
			}
		})
	}
}

// TestWidenOffsets covers the narrow→wide switch no test-sized graph can
// reach: at 2³² endpoints every count moves into the int64 array
// unchanged; below it the counts themselves become the offsets.
func TestWidenOffsets(t *testing.T) {
	counts := []uint32{0, 3, 1 << 31, 0, ^uint32(0)}
	wide := widenOffsets(counts, 1<<32)
	if !wide.wide() || wide.len() != len(counts) {
		t.Fatalf("endpoints 2^32: wide=%v len=%d, want int64 offsets of length %d", wide.wide(), wide.len(), len(counts))
	}
	for i, c := range counts {
		if wide.o64[i] != int64(c) {
			t.Errorf("o64[%d] = %d, want %d", i, wide.o64[i], c)
		}
	}
	narrow := widenOffsets(counts, 1<<32-1)
	if narrow.wide() || &narrow.o32[0] != &counts[0] {
		t.Fatal("endpoints below 2^32: offsets should be the counts array itself")
	}
}

func TestStreamRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name string
		spec StreamSpec
	}{
		{"self-loop", StreamSpec{N: 3, M: 1, Emit: func(_ int, emit func(u, v Vertex)) { emit(1, 1) }}},
		{"out-of-range", StreamSpec{N: 3, M: 1, Emit: func(_ int, emit func(u, v Vertex)) { emit(0, 3) }}},
		{"negative", StreamSpec{N: 3, M: 1, Emit: func(_ int, emit func(u, v Vertex)) { emit(-1, 0) }}},
		{"duplicate", StreamSpec{N: 3, M: 2, Emit: func(_ int, emit func(u, v Vertex)) { emit(0, 1); emit(1, 0) }}},
		{"undercount", StreamSpec{N: 3, M: 2, Emit: func(_ int, emit func(u, v Vertex)) { emit(0, 1) }}},
		{"overcount", StreamSpec{N: 3, M: 1, Emit: func(_ int, emit func(u, v Vertex)) { emit(0, 1); emit(0, 2) }}},
		{"negative-n", StreamSpec{N: -1, M: 0, Emit: func(_ int, emit func(u, v Vertex)) {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildStream(tc.spec); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// TestStreamEmptyGraph covers the n=0 and edgeless corners the harness
// never generates but the builder must not crash on.
func TestStreamEmptyGraph(t *testing.T) {
	g, err := BuildStream(StreamSpec{N: 0, Name: "empty", Emit: func(_ int, emit func(u, v Vertex)) {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.N(), g.M())
	}
	g, err = BuildStream(StreamSpec{N: 4, Name: "edgeless", Emit: func(_ int, emit func(u, v Vertex)) {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("edgeless graph has n=%d m=%d", g.N(), g.M())
	}
}

// FuzzStreamVsBuilder drives the byte-identity property over fuzzer-chosen
// family parameters, so the equivalence is not just pinned at the
// hand-picked sizes in deterministicSpecs.
func FuzzStreamVsBuilder(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(3))
	f.Add(uint8(1), uint8(4), uint8(2))
	f.Add(uint8(13), uint8(6), uint8(6))
	f.Fuzz(func(t *testing.T, family, a, b uint8) {
		var spec StreamSpec
		switch family % 14 {
		case 0:
			spec = starSpec(1 + int(a)%64)
		case 1:
			spec = doubleStarSpec(1 + int(a)%32)
		case 2:
			spec = heavyBinaryTreeSpec(2 + int(a)%5)
		case 3:
			spec = siameseHeavyTreeSpec(2 + int(a)%5)
		case 4:
			spec = cycleStarsCliquesSpec(3 + int(a)%4)
		case 5:
			spec = completeSpec(2 + int(a)%24)
		case 6:
			spec = cycleSpec(3 + int(a)%64)
		case 7:
			spec = pathSpec(2 + int(a)%64)
		case 8:
			spec = binaryTreeSpec(1 + int(a)%6)
		case 9:
			spec = hypercubeSpec(1 + int(a)%7)
		case 10:
			spec = torus2DSpec(3+int(a)%6, 3+int(b)%6)
		case 11:
			spec = grid2DSpec(1+int(a)%8, 2+int(b)%8)
		case 12:
			spec = ringOfCliquesSpec(3+int(a)%5, 2+int(b)%5)
		default:
			spec = cliquePathSpec(2+int(a)%5, 2+int(b)%5)
		}
		streamed, err := BuildStream(spec)
		if err != nil {
			t.Fatalf("BuildStream(%s): %v", spec.Name, err)
		}
		legacy := buildLegacy(t, spec)
		if !bytes.Equal(encodeCSRBytes(t, streamed), encodeCSRBytes(t, legacy)) {
			t.Fatalf("CSR encodings differ for %s", spec.Name)
		}
	})
}

// TestStreamPeakAllocations spot-checks the headline claim: building via
// the stream spec allocates no per-vertex adjacency slices, so total
// allocated bytes stay within a small factor of the final CSR, where the
// legacy Builder's slice-of-slices roughly doubles it.
func TestStreamPeakAllocations(t *testing.T) {
	const leaves = 1 << 16
	spec := starSpec(leaves)
	streamedBytes := testing.AllocsPerRun(1, func() {
		g, err := BuildStream(spec)
		if err != nil {
			t.Error(err)
		}
		_ = g
	})
	// AllocsPerRun counts allocations, not bytes: the streaming path does
	// O(1) allocations (offsets, neighbors, landmark map internals), the
	// legacy path at least one per vertex.
	if streamedBytes > 64 {
		t.Fatalf("streaming build of star(%d) did %v allocations, want O(1)", leaves, streamedBytes)
	}
}

func ExampleBuildStream() {
	g, err := BuildStream(StreamSpec{
		N:    4,
		M:    3,
		Name: "claw",
		Emit: func(_ int, emit func(u, v Vertex)) {
			emit(0, 1)
			emit(0, 2)
			emit(0, 3)
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(g.N(), g.M(), g.Degree(0))
	// Output: 4 3 3
}
