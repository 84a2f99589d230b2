// Command graphgen generates graphs from the paper's families, exports them
// in the repository's text edge-list format, and prints structural
// statistics for imported or generated graphs.
//
// Usage:
//
//	graphgen -spec doublestar:512 -o doublestar.g      # generate & export
//	graphgen -spec randreg:1024,14 -seed 7 -stats      # generate & describe
//	graphgen -in doublestar.g -stats                   # import & describe
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rumor/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		spec     = fs.String("spec", "", "graph spec to generate (e.g. star:100)")
		in       = fs.String("in", "", "read a graph from this file instead of generating")
		out      = fs.String("o", "", "write the graph to this file")
		seed     = fs.Uint64("seed", 1, "graph seed for random families (the same realization cmd/rumor -seed and /v1/run graphSeed build)")
		stats    = fs.Bool("stats", false, "print structural statistics")
		validate = fs.Bool("validate", false, "run full structural validation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	var err error
	switch {
	case *in != "" && *spec != "":
		return fmt.Errorf("-in and -spec are mutually exclusive")
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.Decode(f)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", *in, err)
		}
	case *spec != "":
		g, err = graph.FromSpec(*spec, *seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -spec or -in is required")
	}

	if *validate {
		if err := g.Validate(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "validation: ok")
	}
	if *stats {
		printStats(stdout, g)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.Encode(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (n=%d, m=%d)\n", *out, g.N(), g.M())
	}
	if !*stats && *out == "" && !*validate {
		printStats(stdout, g)
	}
	return nil
}

func printStats(w io.Writer, g *graph.Graph) {
	fmt.Fprintf(w, "name       %s\n", g.Name())
	fmt.Fprintf(w, "vertices   %d\n", g.N())
	fmt.Fprintf(w, "edges      %d\n", g.M())
	reg, d := g.IsRegular()
	if reg {
		fmt.Fprintf(w, "degree     %d-regular\n", d)
	} else {
		fmt.Fprintf(w, "degree     min=%d avg=%.2f max=%d\n", g.MinDegree(), g.AvgDegree(), g.MaxDegree())
	}
	fmt.Fprintf(w, "connected  %v\n", graph.IsConnected(g))
	fmt.Fprintf(w, "bipartite  %v\n", g.Bipartite())
	if g.N() <= 4096 {
		fmt.Fprintf(w, "diameter   %d\n", graph.Diameter(g))
	} else {
		fmt.Fprintf(w, "diameter   >= %d (double-sweep estimate)\n", graph.DiameterEstimate(g))
	}
	if names := g.LandmarkNames(); len(names) > 0 {
		fmt.Fprintf(w, "landmarks  ")
		for i, n := range names {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			v, _ := g.Landmark(n)
			fmt.Fprintf(w, "%s=%d", n, v)
		}
		fmt.Fprintln(w)
	}
}
