// Regular demonstrates Theorem 1 empirically: on regular graphs with
// degree Ω(log n), push and visit-exchange have the same broadcast time up
// to constant factors — including on "slow" regular graphs where both are
// polynomial. It also runs the coupled execution of Section 5 and checks
// the Lemma 13 invariant τ_u ≤ C_u(t_u) exactly.
//
//	go run ./examples/regular
package main

import (
	"fmt"
	"log"
	"math"

	"rumor"
)

func main() {
	fmt.Println("Theorem 1: T_push ≍ T_visitx on regular graphs (d = Ω(log n))")
	fmt.Printf("\n%-22s %6s %4s %12s %12s %8s\n", "graph", "n", "d", "T_push", "T_visitx", "ratio")

	type family struct {
		name string
		g    *rumor.Graph
		d    int
	}
	var families []family
	for _, dim := range []int{7, 8, 9, 10} {
		g := rumor.Hypercube(dim)
		families = append(families, family{g.Name(), g, dim})
	}
	for _, n := range []int{512, 1024, 2048} {
		d := 2 * int(math.Ceil(math.Log(float64(n))))
		g, err := rumor.GraphFromSpec(fmt.Sprintf("randreg:%d,%d", n, d), 7)
		if err != nil {
			log.Fatal(err)
		}
		families = append(families, family{g.Name(), g, d})
	}
	// The slow regular family: a ring of cliques where both protocols need
	// Θ(n/d) rounds — the constant-factor relation must hold here too.
	for _, n := range []int{512, 1024} {
		s := 2 * int(math.Ceil(math.Log(float64(n))))
		g := rumor.RingOfCliques(n/s, s)
		families = append(families, family{g.Name(), g, s + 1})
	}

	const trials = 10
	for _, f := range families {
		push := meanRounds(f.g, trials, 11, func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewPush(f.g, 0, rng, rumor.PushOptions{})
		})
		visitx := meanRounds(f.g, trials, 13, func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewVisitExchange(f.g, 0, rng, rumor.AgentOptions{})
		})
		fmt.Printf("%-22s %6d %4d %12.1f %12.1f %8.2f\n",
			f.name, f.g.N(), f.d, push, visitx, push/visitx)
	}

	fmt.Println("\nThe ratio stays in a constant band even as the absolute times range")
	fmt.Println("from ~10 rounds (hypercube) to hundreds (ring of cliques).")

	// Coupled run: the proof machinery of Section 5, executable.
	fmt.Println("\nSection 5 coupling on hypercube(10): verifying Lemma 13 (τ_u ≤ C_u(t_u))...")
	g := rumor.Hypercube(10)
	res, err := rumor.RunCoupled(g, 0, rumor.NewRNG(99), rumor.CouplingConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.VerifyLemma13(); err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for u := range res.C {
		if r := float64(res.Tau[u]) / float64(res.C[u]+1); r > worst {
			worst = r
		}
	}
	fmt.Printf("holds for all %d vertices; coupled times T_push=%d, T_visitx=%d; max τ_u/C_u = %.2f\n",
		g.N(), res.TPush, res.TVisitx, worst)
}

func meanRounds(g *rumor.Graph, trials int, seed uint64, mk func(*rumor.RNG) (rumor.Process, error)) float64 {
	results, err := rumor.RunMany(g, mk, trials, 0, seed)
	if err != nil {
		log.Fatal(err)
	}
	sum := 0
	for _, r := range results {
		sum += r.Rounds
	}
	return float64(sum) / float64(len(results))
}
