// Command rumor runs one rumor-spreading protocol on one graph and prints
// broadcast-time statistics.
//
// Usage:
//
//	rumor -graph star:1024 -protocol visitx -trials 10 -seed 1
//	rumor -graph randreg:2048,16 -protocol push -source 0
//	rumor -graph doublestar:512 -protocol push-pull -trials 20 -history
//
// Protocols: push, push-pull, visitx, meetx, hybrid.
// Graph families: see -help output (the FromSpec grammar).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rumor/internal/experiment"
	"rumor/internal/graph"
	"rumor/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rumor:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rumor", flag.ContinueOnError)
	var (
		graphSpec = fs.String("graph", "star:256", "graph spec, e.g. star:1024, randreg:2048,16")
		protocol  = fs.String("protocol", "push", "push | push-pull | visitx | meetx | hybrid")
		source    = fs.Int("source", -1, "source vertex (-1 = first landmark or 0)")
		trials    = fs.Int("trials", 10, "independent trials")
		seed      = fs.Uint64("seed", 1, "master seed")
		alpha     = fs.Float64("alpha", 1, "agent density |A| = alpha*n (agent protocols)")
		agentsN   = fs.Int("agents", 0, "explicit agent count (overrides -alpha)")
		churn     = fs.Float64("churn", 0, "per-round agent replacement probability")
		lazy      = fs.String("lazy", "auto", "agent walk laziness: auto | on | off")
		maxRounds = fs.Int("maxrounds", 0, "round cutoff (0 = default n^2 bound)")
		history   = fs.Bool("history", false, "print per-round informed counts of trial 0")
		dataDir   = fs.String("data-dir", "", "content-addressed graph store directory; giant deterministic graphs build once and mmap on reuse")
		spill     = fs.Int64("graph-spill", 256<<20, "spill graphs whose CSR is at least this many bytes into <data-dir>/graphs — deterministic families by canonical spec, random families by (spec, sampler seed, sampler version) (0 = never; needs -data-dir)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: rumor [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nGraph families:\n  %s\n", strings.Join(graph.SpecFamilies(), "\n  "))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		if err := experiment.ConfigureGraphStorage(filepath.Join(*dataDir, "graphs"), *spill); err != nil {
			return err
		}
	}

	// The CLI is a thin shell over the same spec-driven entry point the
	// serving layer uses: one RunSpec, normalized, built, run.
	spec := experiment.RunSpec{
		Graph:     *graphSpec,
		Protocol:  experiment.Proto(*protocol),
		Source:    *source,
		Trials:    *trials,
		MaxRounds: *maxRounds,
		Seed:      *seed,
		Alpha:     *alpha,
		Agents:    *agentsN,
		Churn:     *churn,
		Lazy:      *lazy,
	}
	spec, err := spec.Normalize()
	if err != nil {
		return err
	}
	g, src, err := spec.Build()
	if err != nil {
		return err
	}
	results, err := spec.RunOn(g, src, nil)
	if err != nil {
		return err
	}

	rounds := make([]float64, 0, len(results))
	msgs := make([]float64, 0, len(results))
	completed := 0
	for _, r := range results {
		if r.Completed {
			completed++
			rounds = append(rounds, float64(r.Rounds))
			msgs = append(msgs, float64(r.Messages))
		}
	}
	reg, d := g.IsRegular()
	fmt.Fprintf(out, "graph      %s  (n=%d, m=%d", g.Name(), g.N(), g.M())
	if reg {
		fmt.Fprintf(out, ", %d-regular", d)
	}
	fmt.Fprintf(out, ", bipartite=%v)\n", g.Bipartite())
	fmt.Fprintf(out, "protocol   %s  source=%d  trials=%d  seed=%d\n", *protocol, src, *trials, *seed)
	fmt.Fprintf(out, "completed  %d/%d\n", completed, len(results))
	if completed > 0 {
		s := stats.Summarize(rounds)
		fmt.Fprintf(out, "rounds     mean=%.1f ±%.1f (95%% CI)  median=%.0f  min=%.0f  max=%.0f  p90=%.0f\n",
			s.Mean, s.CI95, s.Median, s.Min, s.Max, s.P90)
		ms := stats.Summarize(msgs)
		fmt.Fprintf(out, "messages   mean=%.0f (%.1f per round)\n", ms.Mean, ms.Mean/s.Mean)
	}
	if *history && len(results) > 0 {
		fmt.Fprintf(out, "history (trial 0): ")
		for t, c := range results[0].History {
			if t > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprintf(out, "%d", c)
		}
		fmt.Fprintln(out)
	}
	if completed < len(results) {
		fmt.Fprintf(out, "warning: %d trials hit the round cutoff\n", len(results)-completed)
	}
	return nil
}
