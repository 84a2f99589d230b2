package agents

import (
	"math"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/stats"
)

// TestChurnRespawns holds the churn path to the laws of the
// dynamic-agents model rather than to its own output: in three trials'
// walk systems on the (non-regular) heavy binary tree, respawn vertices
// follow the stationary distribution deg(v)/2m, and each system's
// per-round respawn count follows Binomial(|A|, c). Respawned lists are
// strictly ascending.
func TestChurnRespawns(t *testing.T) {
	g, err := graph.FromSpec("heavytree:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		k      = 3
		agents = 500
		churn  = 0.1
		rounds = 100
	)
	var ws []*Walks
	for _, rng := range trialRNGs(11, k) {
		w, err := New(g, Config{Count: agents, ChurnRate: churn}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	at := make([]float64, g.N()) // respawns per vertex
	var counts []int             // respawns per (system, round)
	for r := 1; r <= rounds; r++ {
		for tr, w := range ws {
			w.Step()
			resp := w.Respawned()
			for j, id := range resp {
				if j > 0 && id <= resp[j-1] {
					t.Fatalf("round %d system %d: respawn ids %d then %d", r, tr, resp[j-1], id)
				}
				at[w.Positions()[id]]++
			}
			counts = append(counts, len(resp))
		}
	}

	// Respawn vertices: one bin per run of consecutive vertices expecting
	// at least 20 respawns.
	total := 0.0
	for _, c := range at {
		total += c
	}
	twoM := float64(g.EndpointCount())
	var obs, exp []float64
	var o, e float64
	for v := 0; v < g.N(); v++ {
		o += at[v]
		e += total * float64(g.Degree(graph.Vertex(v))) / twoM
		if e >= 20 {
			obs, exp = append(obs, o), append(exp, e)
			o, e = 0, 0
		}
	}
	obs[len(obs)-1] += o
	exp[len(exp)-1] += e
	if stat, df, p := stats.ChiSquare(obs, exp); p < 1e-3 {
		t.Errorf("respawn vertices: chi2 = %.1f on %d df, p = %.2g against deg(v)/2m", stat, df, p)
	}

	// Per-round respawn counts: bins of about an eighth of the binomial's
	// mass each.
	pmf := make([]float64, agents+1)
	for x := range pmf {
		lc, _ := math.Lgamma(agents + 1)
		l1, _ := math.Lgamma(float64(x) + 1)
		l2, _ := math.Lgamma(float64(agents-x) + 1)
		pmf[x] = math.Exp(lc - l1 - l2 + float64(x)*math.Log(churn) + float64(agents-x)*math.Log1p(-churn))
	}
	n := float64(len(counts))
	binOf := make([]int, agents+1)
	obs, exp = obs[:0], exp[:0]
	mass := 0.0
	for x := range pmf {
		if len(exp) == 0 || mass >= 1.0/8 {
			obs, exp = append(obs, 0), append(exp, 0)
			mass = 0
		}
		binOf[x] = len(exp) - 1
		exp[len(exp)-1] += n * pmf[x]
		mass += pmf[x]
	}
	// The last bins hold the far tail; fold any bin expecting under 5 into
	// its predecessor.
	for len(exp) > 2 && exp[len(exp)-1] < 5 {
		exp[len(exp)-2] += exp[len(exp)-1]
		exp = exp[:len(exp)-1]
		obs = obs[:len(exp)]
	}
	for _, c := range counts {
		obs[min(binOf[c], len(obs)-1)]++
	}
	if stat, df, p := stats.ChiSquare(obs, exp); p < 1e-3 {
		t.Errorf("respawns per round: chi2 = %.1f on %d df, p = %.2g against Binomial(%d, %g)", stat, df, p, agents, churn)
	}
}
