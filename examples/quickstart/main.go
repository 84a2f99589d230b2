// Quickstart: run all four of the paper's protocols (plus the hybrid) on
// one graph and print their broadcast times side by side.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -graph doublestar:512 -trials 10
package main

import (
	"flag"
	"fmt"
	"log"

	"rumor"
)

func main() {
	graphSpec := flag.String("graph", "star:1024", "graph spec, family:params (e.g. doublestar:512, randreg:256,6; cmd/rumor -help lists them)")
	trials := flag.Int("trials", 5, "trials per protocol")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.Parse()

	g, err := rumor.GraphFromSpec(*graphSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	src := rumor.Vertex(0)
	if leaf, ok := g.Landmark("leaf"); ok {
		src = leaf
	}
	fmt.Printf("graph %s: n=%d, m=%d, source=%d\n\n", g.Name(), g.N(), g.M(), src)
	fmt.Printf("%-16s %10s %10s %10s\n", "protocol", "mean", "min", "max")

	type builder struct {
		name string
		mk   func(rng *rumor.RNG) (rumor.Process, error)
	}
	builders := []builder{
		{"push", func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewPush(g, src, rng, rumor.PushOptions{})
		}},
		{"push-pull", func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewPushPull(g, src, rng, rumor.PushPullOptions{})
		}},
		{"visit-exchange", func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewVisitExchange(g, src, rng, rumor.AgentOptions{})
		}},
		{"meet-exchange", func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewMeetExchange(g, src, rng, rumor.AgentOptions{})
		}},
		{"ppull+visitx", func(rng *rumor.RNG) (rumor.Process, error) {
			return rumor.NewHybrid(g, src, rng, rumor.AgentOptions{})
		}},
	}
	for _, b := range builders {
		results, err := rumor.RunMany(g, b.mk, *trials, 0, *seed)
		if err != nil {
			log.Fatal(err)
		}
		mean, minR, maxR := summarize(results)
		fmt.Printf("%-16s %10.1f %10d %10d\n", b.name, mean, minR, maxR)
	}
	fmt.Println("\nOn the star (Lemma 2): push needs Θ(n log n) rounds while the")
	fmt.Println("agent-based protocols finish in O(log n) — try -graph doublestar:512")
	fmt.Println("to see push-pull lose too (Lemma 3).")
}

func summarize(results []rumor.Result) (mean float64, minR, maxR int) {
	minR, maxR = results[0].Rounds, results[0].Rounds
	sum := 0
	for _, r := range results {
		sum += r.Rounds
		if r.Rounds < minR {
			minR = r.Rounds
		}
		if r.Rounds > maxR {
			maxR = r.Rounds
		}
	}
	return float64(sum) / float64(len(results)), minR, maxR
}
