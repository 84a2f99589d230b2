package coupling

import (
	"testing"
	"testing/quick"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func mustRun(t *testing.T, g *graph.Graph, s graph.Vertex, seed uint64, cfg Config) *Result {
	t.Helper()
	res, err := Run(g, s, xrand.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TVisitx < 0 || res.TPush < 0 {
		t.Fatalf("coupled run incomplete: visitx=%d push=%d", res.TVisitx, res.TPush)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	g := graph.Complete(8)
	if _, err := Run(g, 99, xrand.New(1), Config{}); err == nil {
		t.Error("bad source accepted")
	}
}

// TestLemma13HoldsOnRegularFamilies: the paper's Lemma 13 invariant
// τ_u ≤ C_u(t_u) is deterministic under the coupling; verify it exactly on
// several regular graphs and seeds.
func TestLemma13HoldsOnRegularFamilies(t *testing.T) {
	rr, err := graph.RandomRegularConnected(96, 8, 31337)
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]*graph.Graph{
		"hypercube":   graph.Hypercube(6),
		"complete":    graph.Complete(32),
		"randreg":     rr,
		"ringcliques": graph.RingOfCliques(4, 8),
		"torus":       graph.Torus2D(6, 6),
	}
	for name, g := range gs {
		for seed := uint64(0); seed < 5; seed++ {
			res := mustRun(t, g, 0, seed, Config{})
			if err := res.VerifyLemma13(); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestLemma13HoldsOnIrregularGraphs: the counter inequality in Lemma 13
// never uses regularity, so it must hold on the Fig. 1 families too.
func TestLemma13HoldsOnIrregularGraphs(t *testing.T) {
	gs := map[string]*graph.Graph{
		"star":       graph.Star(40),
		"doublestar": graph.DoubleStar(20),
		"heavytree":  graph.HeavyBinaryTree(5),
		"cyclestars": graph.CycleStarsCliques(3),
	}
	for name, g := range gs {
		for seed := uint64(0); seed < 3; seed++ {
			res := mustRun(t, g, 0, seed, Config{})
			if err := res.VerifyLemma13(); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestQuickLemma13 property-checks the invariant over random regular graphs
// with random seeds, degrees, and agent counts.
func TestQuickLemma13(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 24 + 2*rng.IntN(40)
		d := 4 + rng.IntN(6)
		if n*d%2 == 1 {
			n++
		}
		g, err := graph.RandomRegularConnected(n, d, rng.Uint64())
		if err != nil {
			return true // skip rare generation failure
		}
		res, err := Run(g, graph.Vertex(rng.IntN(n)), xrand.New(seed+1), Config{
			Agents: 1 + rng.IntN(2*n),
		})
		if err != nil || res.TVisitx < 0 || res.TPush < 0 {
			return false
		}
		return res.VerifyLemma13() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceCounters: the source has t_s = 0, τ_s = 0, C_s = 0, no parent.
func TestSourceCounters(t *testing.T) {
	g := graph.Hypercube(5)
	res := mustRun(t, g, 3, 7, Config{})
	if res.TV[3] != 0 || res.Tau[3] != 0 || res.C[3] != 0 || res.Parent[3] != -1 {
		t.Errorf("source counters wrong: tv=%d tau=%d c=%d parent=%d",
			res.TV[3], res.Tau[3], res.C[3], res.Parent[3])
	}
}

// TestParentsFormTreeToSource: following Parent pointers from any vertex
// must reach the source with strictly decreasing informing times.
func TestParentsFormTreeToSource(t *testing.T) {
	g := graph.Torus2D(5, 5)
	res := mustRun(t, g, 0, 11, Config{})
	for u := 0; u < g.N(); u++ {
		v := graph.Vertex(u)
		steps := 0
		for res.Parent[v] >= 0 {
			p := res.Parent[v]
			if res.TV[p] >= res.TV[v] {
				t.Fatalf("parent %d informed at %d, not before child %d at %d", p, res.TV[p], v, res.TV[v])
			}
			if !g.HasEdge(p, v) {
				t.Fatalf("parent edge %d-%d missing", p, v)
			}
			v = p
			if steps++; steps > g.N() {
				t.Fatal("parent chain does not terminate")
			}
		}
		if v != 0 {
			t.Fatalf("parent chain from %d ends at %d, not the source", u, v)
		}
	}
}

// TestCanonicalWalkCertifiesCounter is Lemma 14 made executable: the
// canonical walk reconstructed from the information path has congestion
// exactly C_u(t_u), and it is a legal walk (stay or move along an edge).
func TestCanonicalWalkCertifiesCounter(t *testing.T) {
	rr, err := graph.RandomRegularConnected(48, 6, 171)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{graph.Hypercube(5), rr, graph.Complete(24)} {
		res := mustRun(t, g, 0, 23, Config{RecordZ: true})
		for u := 0; u < g.N(); u++ {
			walk := res.CanonicalWalk(graph.Vertex(u))
			if len(walk) != res.TV[u]+1 {
				t.Fatalf("%s: walk length %d, want TV+1 = %d", g.Name(), len(walk), res.TV[u]+1)
			}
			if walk[0] != 0 {
				t.Fatalf("%s: walk starts at %d, not the source", g.Name(), walk[0])
			}
			if walk[len(walk)-1] != graph.Vertex(u) {
				t.Fatalf("%s: walk ends at %d, not %d", g.Name(), walk[len(walk)-1], u)
			}
			for i := 1; i < len(walk); i++ {
				if walk[i] != walk[i-1] && !g.HasEdge(walk[i-1], walk[i]) {
					t.Fatalf("%s: illegal walk step %d->%d", g.Name(), walk[i-1], walk[i])
				}
			}
			q, err := res.WalkCongestion(walk)
			if err != nil {
				t.Fatal(err)
			}
			if q != res.C[u] {
				t.Fatalf("%s vertex %d: walk congestion %d != C %d", g.Name(), u, q, res.C[u])
			}
		}
	}
}

// TestWalkCongestionRequiresHistory: WalkCongestion without RecordZ fails
// cleanly.
func TestWalkCongestionRequiresHistory(t *testing.T) {
	g := graph.Complete(8)
	res := mustRun(t, g, 0, 5, Config{})
	if _, err := res.WalkCongestion([]graph.Vertex{0, 1}); err == nil {
		t.Error("missing history not reported")
	}
}

// TestCouplingDeterministic: identical seeds give identical coupled
// outcomes.
func TestCouplingDeterministic(t *testing.T) {
	g := graph.Hypercube(6)
	a := mustRun(t, g, 0, 99, Config{})
	b := mustRun(t, g, 0, 99, Config{})
	if a.TVisitx != b.TVisitx || a.TPush != b.TPush {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a.TVisitx, a.TPush, b.TVisitx, b.TPush)
	}
	for u := range a.C {
		if a.C[u] != b.C[u] || a.Tau[u] != b.Tau[u] || a.TV[u] != b.TV[u] {
			t.Fatalf("counters differ at %d", u)
		}
	}
}

// TestCoupledTimesAreComparable: Theorem 1 says T_push = Θ(T_visitx) on
// regular graphs of logarithmic degree; under the coupling with shared
// randomness the two completion times should be within a modest constant
// factor on the hypercube (a coarse empirical check; the sweep experiments
// quantify this properly).
func TestCoupledTimesAreComparable(t *testing.T) {
	g := graph.Hypercube(8) // n=256, d=8 = log2 n
	lo, hi := 1000.0, 0.0
	for seed := uint64(0); seed < 5; seed++ {
		res := mustRun(t, g, 0, seed, Config{})
		ratio := float64(res.TPush) / float64(res.TVisitx)
		if ratio < lo {
			lo = ratio
		}
		if ratio > hi {
			hi = ratio
		}
	}
	if lo < 0.05 || hi > 20 {
		t.Errorf("push/visitx ratio band [%.3f, %.3f] implausibly wide", lo, hi)
	}
}
