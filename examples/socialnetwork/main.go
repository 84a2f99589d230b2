// Socialnetwork compares all protocols on a power-law (Chung-Lu) graph —
// the kind of topology the rumor-spreading literature motivates with social
// networks — and shows that the hybrid protocol inherits the best of both
// mechanisms on a realistic, heavy-tailed degree distribution.
//
//	go run ./examples/socialnetwork
//	go run ./examples/socialnetwork -n 4000 -beta 2.3
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"rumor"
)

func main() {
	n := flag.Int("n", 2000, "number of vertices")
	beta := flag.Float64("beta", 2.5, "power-law exponent (must be > 2)")
	avgDeg := flag.Float64("avgdeg", 10, "target average degree")
	trials := flag.Int("trials", 10, "trials per protocol")
	seed := flag.Uint64("seed", 42, "master seed")
	flag.Parse()

	raw, err := rumor.GraphFromSpec(fmt.Sprintf("chunglu:%d,%g,%g", *n, *beta, *avgDeg), *seed)
	if err != nil {
		log.Fatal(err)
	}
	// Chung-Lu samples can leave a few low-weight vertices isolated;
	// broadcast runs on the giant component.
	g, _ := rumor.GiantComponent(raw)
	fmt.Printf("Chung-Lu graph: sampled n=%d; giant component n=%d, m=%d, avg deg %.1f, max deg %d\n",
		raw.N(), g.N(), g.M(), g.AvgDegree(), g.MaxDegree())

	// Source: a median-degree vertex (a "typical user" posting a rumor).
	src := medianDegreeVertex(g)
	fmt.Printf("source: vertex %d (degree %d, a typical user)\n\n", src, g.Degree(src))

	fmt.Printf("%-16s %10s %10s %12s\n", "protocol", "mean", "max", "msgs/round")
	for _, name := range []string{"push", "push-pull", "visit-exchange", "meet-exchange", "ppull+visitx"} {
		name := name
		results, err := rumor.RunMany(g, func(rng *rumor.RNG) (rumor.Process, error) {
			switch name {
			case "push":
				return rumor.NewPush(g, src, rng, rumor.PushOptions{})
			case "push-pull":
				return rumor.NewPushPull(g, src, rng, rumor.PushPullOptions{})
			case "visit-exchange":
				return rumor.NewVisitExchange(g, src, rng, rumor.AgentOptions{})
			case "meet-exchange":
				return rumor.NewMeetExchange(g, src, rng, rumor.AgentOptions{})
			default:
				return rumor.NewHybrid(g, src, rng, rumor.AgentOptions{})
			}
		}, *trials, 0, *seed)
		if err != nil {
			log.Fatal(err)
		}
		var mean, msgs float64
		maxR := 0
		for _, r := range results {
			if !r.Completed {
				log.Fatalf("%s did not complete in %d rounds", name, r.Rounds)
			}
			mean += float64(r.Rounds)
			msgs += float64(r.Messages) / float64(r.Rounds)
			if r.Rounds > maxR {
				maxR = r.Rounds
			}
		}
		k := float64(len(results))
		fmt.Printf("%-16s %10.1f %10d %12.0f\n", name, mean/k, maxR, msgs/k)
	}
	fmt.Println("\nOn power-law graphs push-pull exploits hubs (the classic social-network")
	fmt.Println("result), the agent protocols pay for the periphery's thin bandwidth, and")
	fmt.Println("the hybrid tracks the best mechanism — matching the paper's Section 1 thesis.")
}

func medianDegreeVertex(g *rumor.Graph) rumor.Vertex {
	type dv struct {
		d int
		v rumor.Vertex
	}
	all := make([]dv, g.N())
	for v := 0; v < g.N(); v++ {
		all[v] = dv{g.Degree(rumor.Vertex(v)), rumor.Vertex(v)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	return all[len(all)/2].v
}
