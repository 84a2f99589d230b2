package coupling

import (
	"testing"
	"testing/quick"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func mustRunOddEven(t *testing.T, g *graph.Graph, s graph.Vertex, seed uint64, cfg Config) *OddEvenResult {
	t.Helper()
	res, err := RunOddEven(g, s, xrand.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TVisitx < 0 || res.TPush < 0 {
		t.Fatalf("odd-even coupled run incomplete: visitx=%d push=%d", res.TVisitx, res.TPush)
	}
	return res
}

func TestOddEvenValidation(t *testing.T) {
	g := graph.Complete(8)
	if _, err := RunOddEven(g, 99, xrand.New(1), Config{}); err == nil {
		t.Error("bad source accepted")
	}
}

// TestOddEvenBothComplete: both coupled processes finish on regular
// families, and all per-vertex times are consistent (source at 0, others
// positive).
func TestOddEvenBothComplete(t *testing.T) {
	rr, err := graph.RandomRegularConnected(64, 8, 4242)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{graph.Hypercube(6), graph.Complete(32), rr} {
		res := mustRunOddEven(t, g, 0, 17, Config{})
		if res.Tau[0] != 0 || res.TV[0] != 0 {
			t.Errorf("%s: source times tau=%d tv=%d", g.Name(), res.Tau[0], res.TV[0])
		}
		for u := 1; u < g.N(); u++ {
			if res.Tau[u] <= 0 || res.TV[u] <= 0 {
				t.Fatalf("%s: vertex %d times tau=%d tv=%d", g.Name(), u, res.Tau[u], res.TV[u])
			}
		}
	}
}

// TestLemma22SlowdownBounded: the Section 6 coupling's statistic
// max_u t'_u/(τ_u + ln n) must stay below a modest constant on regular
// graphs of logarithmic degree (Lemma 22 proves a constant bound w.h.p.).
func TestLemma22SlowdownBounded(t *testing.T) {
	g := graph.Hypercube(8)
	worst := 0.0
	for seed := uint64(0); seed < 8; seed++ {
		res := mustRunOddEven(t, g, 0, seed, Config{})
		s, err := res.MaxSlowdown()
		if err != nil {
			t.Fatal(err)
		}
		if s > worst {
			worst = s
		}
	}
	// The proof's constant is c = O(1); empirically the statistic sits
	// around 1-2 on the hypercube. 6 is a loose but meaningful ceiling.
	if worst > 6 {
		t.Errorf("Lemma 22 statistic %.2f implausibly large", worst)
	}
	if worst <= 0 {
		t.Error("slowdown statistic not positive")
	}
}

// TestOddEvenDeterministic: same seed, same coupled outcome.
func TestOddEvenDeterministic(t *testing.T) {
	g := graph.Hypercube(6)
	a := mustRunOddEven(t, g, 0, 5, Config{})
	b := mustRunOddEven(t, g, 0, 5, Config{})
	if a.TPush != b.TPush || a.TVisitx != b.TVisitx {
		t.Fatal("nondeterministic odd-even coupling")
	}
	for u := range a.Tau {
		if a.Tau[u] != b.Tau[u] || a.TV[u] != b.TV[u] {
			t.Fatalf("times differ at %d", u)
		}
	}
}

// TestQuickOddEvenCompletes: both sides of the coupling finish on random
// regular graphs for random seeds and agent counts, and the slowdown
// statistic stays finite.
func TestQuickOddEvenCompletes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 24 + 2*rng.IntN(30)
		d := 4 + rng.IntN(5)
		if n*d%2 == 1 {
			n++
		}
		g, err := graph.RandomRegularConnected(n, d, rng.Uint64())
		if err != nil {
			return true
		}
		res, err := RunOddEven(g, graph.Vertex(rng.IntN(n)), xrand.New(seed+9), Config{
			Agents: n/2 + rng.IntN(n),
		})
		if err != nil || res.TVisitx < 0 || res.TPush < 0 {
			return false
		}
		s, err := res.MaxSlowdown()
		return err == nil && s > 0 && s < 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
