package agents

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// trialRNGs builds K trial RNGs exactly as core.RunMany derives them.
func trialRNGs(seed uint64, k int) []*xrand.RNG {
	rngs := make([]*xrand.RNG, k)
	for t := range rngs {
		rngs[t] = xrand.New(xrand.TrialSeed(seed, t))
	}
	return rngs
}

// oneLaneSystems builds one one-lane system per trial RNG: the reference
// every lane of a wider system must reproduce.
func oneLaneSystems(t testing.TB, g *graph.Graph, cfg Config, rngs []*xrand.RNG) []*BatchedWalks {
	t.Helper()
	out := make([]*BatchedWalks, len(rngs))
	for tr, rng := range rngs {
		w, err := NewBatched(g, cfg, []*xrand.RNG{rng})
		if err != nil {
			t.Fatal(err)
		}
		out[tr] = w
	}
	return out
}

// TestBatchedWalksDoneMasking: a masked lane freezes while the others keep
// drawing the same streams they would have drawn with every lane active —
// stream keys are per (agent, round), so masking must shift nothing.
func TestBatchedWalksDoneMasking(t *testing.T) {
	g := graph.Hypercube(7)
	const k, agents = 4, 200
	cfg := Config{Count: agents, ChurnRate: 0.05}
	bw, err := NewBatched(g, cfg, trialRNGs(7, k))
	if err != nil {
		t.Fatal(err)
	}
	serial := oneLaneSystems(t, g, cfg, trialRNGs(7, k))
	// Lane 1 stops after round 3, lane 2 after round 7.
	stopAt := map[int]int{1: 3, 2: 7}
	active := []bool{true, true, true, true}
	frozen := make(map[int][]graph.Vertex)
	for r := 1; r <= 12; r++ {
		bw.Step(active)
		for tr := 0; tr < k; tr++ {
			if active[tr] {
				serial[tr].Step(nil)
			}
		}
		for tr := 0; tr < k; tr++ {
			lane := bw.Lane(tr)
			if want, ok := frozen[tr]; ok {
				if !reflect.DeepEqual(lane, want) || !reflect.DeepEqual(bw.Prev(tr), want) || len(bw.Respawned(tr)) != 0 {
					t.Fatalf("round %d: masked lane %d moved or respawned", r, tr)
				}
				continue
			}
			if !reflect.DeepEqual(lane, serial[tr].Lane(0)) || !reflect.DeepEqual(bw.Respawned(tr), serial[tr].Respawned(0)) {
				t.Fatalf("round %d lane %d: diverges from its one-lane system", r, tr)
			}
		}
		for tr, stop := range stopAt {
			if r == stop {
				active[tr] = false
				frozen[tr] = append([]graph.Vertex(nil), bw.Lane(tr)...)
			}
		}
	}
}

// Benchmarks: K one-lane systems stepped one at a time versus one fused
// K-lane system, per (lane, agent) step. hypercube:12's CSR (96 KiB) stays
// cache-resident; hypercube:15's (about 2 MiB) does not, which is where the
// regular bodies' split into slot and gather passes pays.

func benchGraph() *graph.Graph { return graph.Hypercube(12) }

func benchOneLane(b *testing.B, g *graph.Graph) {
	const k = 8
	count := g.N()
	ws := oneLaneSystems(b, g, Config{Count: count}, trialRNGs(1, k))
	b.SetBytes(int64(k * count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			w.Step(nil)
		}
	}
}

func benchBatched(b *testing.B, g *graph.Graph, lazy bool) {
	const k = 8
	count := g.N()
	bw, err := NewBatched(g, Config{Count: count, Lazy: lazy}, trialRNGs(1, k))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Step(nil)
	}
}

func BenchmarkOneLaneWalksStep8(b *testing.B) { benchOneLane(b, benchGraph()) }
func BenchmarkBatchedWalksStep8(b *testing.B) { benchBatched(b, benchGraph(), false) }
func BenchmarkBatchedWalksStep8Large(b *testing.B) {
	benchBatched(b, graph.Hypercube(15), false)
}
func BenchmarkBatchedWalksStep8LargeLazy(b *testing.B) {
	benchBatched(b, graph.Hypercube(15), true)
}
func BenchmarkOneLaneWalksStepStar8(b *testing.B) { benchOneLane(b, graph.Star(4097)) }
func BenchmarkBatchedWalksStepStar8(b *testing.B) { benchBatched(b, graph.Star(4097), false) }

// TestWalkKernelsMatchStreams: every block body of the step — the
// regular slot-and-gather bodies for a power-of-two and for any other
// degree, and the branchless bodies on a mixed-degree graph and on a path
// (every degree a power of two, yet not regular), simple and lazy — moves
// each agent exactly where the per-agent stream path moves it. Systems of
// one and three lanes step three full blocks and a ragged tail, under
// three sequences of random active masks, against a twin whose every step
// goes through stepStreams. A step allocates nothing.
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
			for _, k := range []int{1, 3} {
				for maskSeed := uint64(1); maskSeed <= 3; maskSeed++ {
					cfg := Config{Count: count, Lazy: lazy}
					w, err := NewBatched(g, cfg, trialRNGs(11, k))
					if err != nil {
						t.Fatal(err)
					}
					ref, err := NewBatched(g, cfg, trialRNGs(11, k))
					if err != nil {
						t.Fatal(err)
					}
					masks := xrand.New(maskSeed)
					active := make([]bool, k)
					for r := 1; r <= 8; r++ {
						for tr := range active {
							active[tr] = masks.IntN(4) != 0
						}
						w.Step(active)
						if ref.begin(active) {
							ref.stepStreams()
						}
						if !reflect.DeepEqual(w.pos, ref.pos) {
							t.Fatalf("%s lazy=%v K=%d masks=%d round %d: kernels diverge from the stream path", c.spec, lazy, k, maskSeed, r)
						}
					}
					if allocs := testing.AllocsPerRun(5, func() { w.Step(nil) }); allocs != 0 {
						t.Errorf("%s lazy=%v K=%d: Step allocates %v times", c.spec, lazy, k, allocs)
					}
				}
			}
		}
	}
}
