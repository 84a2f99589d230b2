// Distributed runs push-pull as an actual message-passing system — one
// goroutine per vertex, mailbox transport, barrier-synchronized rounds —
// and cross-checks its broadcast times against the array simulator. The
// outcome is deterministic for a fixed seed even though the goroutines
// interleave arbitrarily.
//
//	go run ./examples/distributed
//	go run ./examples/distributed -graph randreg:1024,14 -protocol push
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"rumor"
)

func main() {
	spec := flag.String("graph", "hypercube:9", "connected graph spec, e.g. hypercube:9 or randreg:1024,14")
	protocol := flag.String("protocol", "push-pull", "push | push-pull")
	trials := flag.Int("trials", 5, "distributed trials")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.Parse()

	g, err := rumor.GraphFromSpec(*spec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var proto = rumor.DistPushPull
	if *protocol == "push" {
		proto = rumor.DistPush
	} else if *protocol != "push-pull" {
		log.Fatalf("unknown protocol %q", *protocol)
	}
	fmt.Printf("graph %s: n=%d, m=%d — spawning %d node goroutines per trial\n\n",
		g.Name(), g.N(), g.M(), g.N())

	fmt.Printf("%-8s %8s %10s %12s %10s\n", "trial", "rounds", "messages", "msgs/round", "wall")
	sumRounds := 0
	for i := 0; i < *trials; i++ {
		start := time.Now()
		res, err := rumor.RunDistributed(g, 0, rumor.DistConfig{
			Protocol: proto,
			Seed:     rumor.DeriveSeed(*seed, i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("trial %d incomplete", i)
		}
		sumRounds += res.Rounds
		fmt.Printf("%-8d %8d %10d %12d %10v\n",
			i, res.Rounds, res.Messages, res.Messages/int64(res.Rounds),
			time.Since(start).Round(time.Millisecond))
	}
	distMean := float64(sumRounds) / float64(*trials)

	// Cross-check against the array simulator.
	simResults, err := rumor.RunMany(g, func(rng *rumor.RNG) (rumor.Process, error) {
		if proto == rumor.DistPush {
			return rumor.NewPush(g, 0, rng, rumor.PushOptions{})
		}
		return rumor.NewPushPull(g, 0, rng, rumor.PushPullOptions{})
	}, *trials, 0, *seed+1)
	if err != nil {
		log.Fatal(err)
	}
	simSum := 0
	for _, r := range simResults {
		simSum += r.Rounds
	}
	simMean := float64(simSum) / float64(len(simResults))
	fmt.Printf("\nmean rounds: distributed %.1f vs simulator %.1f — same protocol, two runtimes\n",
		distMean, simMean)

	// Visit-exchange over the same runtime: agents travel as token
	// messages between node goroutines (the paper's Section 1 remark that
	// agents are "simply tokens passed between nodes", made literal).
	fmt.Println("\nvisit-exchange with agents as token messages:")
	sum := 0
	for i := 0; i < *trials; i++ {
		res, err := rumor.RunDistributedVisitExchange(g, 0, rumor.DistAgentConfig{
			Seed: rumor.DeriveSeed(*seed, 100+i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("trial %d incomplete", i)
		}
		sum += res.Rounds
		fmt.Printf("  trial %d: %d rounds, %d token messages\n", i, res.Rounds, res.Messages)
	}
	fmt.Printf("  mean %.1f rounds with |A| = n tokens\n", float64(sum)/float64(*trials))
}
