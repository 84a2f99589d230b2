package agents

import (
	"fmt"
	"slices"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// trialRNGs builds k trial RNGs exactly as core.RunMany derives them.
func trialRNGs(seed uint64, k int) []*xrand.RNG {
	rngs := make([]*xrand.RNG, k)
	for t := range rngs {
		rngs[t] = xrand.New(xrand.TrialSeed(seed, t))
	}
	return rngs
}

// Benchmarks: one walk system's step, per agent step. hypercube:12's CSR
// (96 KiB) stays cache-resident; hypercube:15's (about 2 MiB) does not,
// which is where the regular bodies' split into slot and gather passes
// pays.

func benchWalks(b *testing.B, g *graph.Graph, lazy bool) {
	count := g.N()
	w, err := New(g, Config{Count: count, Lazy: lazy}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

func BenchmarkWalksStep(b *testing.B)          { benchWalks(b, graph.Hypercube(12), false) }
func BenchmarkWalksStepLarge(b *testing.B)     { benchWalks(b, graph.Hypercube(15), false) }
func BenchmarkWalksStepLargeLazy(b *testing.B) { benchWalks(b, graph.Hypercube(15), true) }
func BenchmarkWalksStepStar(b *testing.B)      { benchWalks(b, graph.Star(4097), false) }

// TestWalkKernelsMatchStreams: every block body of the step — the
// regular slot-and-gather bodies for a power-of-two and for any other
// degree, and the branchless bodies on a mixed-degree graph and on a path
// (every degree a power of two, yet not regular), simple and lazy — moves
// each agent exactly where the per-agent stream path moves it. A system
// steps three full blocks and a ragged tail against a twin whose every
// step goes through stepStreams. A step allocates nothing.
func TestWalkKernelsMatchStreams(t *testing.T) {
	const count = 3*batchBlock + 37
	for _, c := range []struct {
		spec string
		deg  int // the graph's regular degree, 0 if its degrees differ
	}{
		{"randreg:700,8", 8},
		{"randreg:700,7", 7},
		{"star:600", 0},
		{"path:700", 0},
	} {
		g, err := graph.FromSpec(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.RegularDegree(); got != c.deg {
			t.Fatalf("%s: RegularDegree %d, want %d", c.spec, got, c.deg)
		}
		for _, lazy := range []bool{false, true} {
			cfg := Config{Count: count, Lazy: lazy}
			if err := kernelsMatchStreams(g, cfg, 11, 8); err != nil {
				t.Fatalf("%s lazy=%v: %v", c.spec, lazy, err)
			}
			w, err := New(g, cfg, xrand.New(11))
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(5, w.Step); allocs != 0 {
				t.Errorf("%s lazy=%v: Step allocates %v times", c.spec, lazy, allocs)
			}
		}
	}
}

// kernelsMatchStreams steps a system built from seed through Step and a
// twin through stepStreams alone, for the given rounds, and reports the
// first round whose positions, previous positions or respawn lists
// differ.
func kernelsMatchStreams(g *graph.Graph, cfg Config, seed uint64, rounds int) error {
	w, err := New(g, cfg, xrand.New(seed))
	if err != nil {
		return err
	}
	ref, err := New(g, cfg, xrand.New(seed))
	if err != nil {
		return err
	}
	for r := 1; r <= rounds; r++ {
		w.Step()
		ref.begin()
		ref.stepStreams()
		if !slices.Equal(w.Positions(), ref.Positions()) || !slices.Equal(w.Prev(), ref.Prev()) {
			return fmt.Errorf("round %d: kernels diverge from the stream path", r)
		}
		if !slices.Equal(w.Respawned(), ref.Respawned()) {
			return fmt.Errorf("round %d: respawns %v, stream path %v", r, w.Respawned(), ref.Respawned())
		}
	}
	return nil
}
