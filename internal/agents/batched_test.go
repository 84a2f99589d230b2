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
// K-lane system, per (lane, agent) step.

func benchGraph() *graph.Graph { return graph.Hypercube(12) }

func BenchmarkOneLaneWalksStep8(b *testing.B) {
	g := benchGraph()
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

func BenchmarkBatchedWalksStep8(b *testing.B) {
	g := benchGraph()
	const k = 8
	count := g.N()
	bw, err := NewBatched(g, Config{Count: count}, trialRNGs(1, k))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Step(nil)
	}
}

func BenchmarkOneLaneWalksStepStar8(b *testing.B) {
	g := graph.Star(4097)
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

func BenchmarkBatchedWalksStepStar8(b *testing.B) {
	g := graph.Star(4097)
	const k = 8
	count := g.N()
	bw, err := NewBatched(g, Config{Count: count}, trialRNGs(1, k))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Step(nil)
	}
}
