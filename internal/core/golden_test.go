package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engines")

// goldenPath is the committed record of every engine's outputs.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenSpecs is a small instance of each of the 18 graph.ParseSpec
// families; the random ones are built from graph seed 1.
var goldenSpecs = []string{
	"star:20", "doublestar:8", "heavytree:4", "siamesetree:4", "cyclestars:3",
	"complete:12", "cycle:15", "path:12", "bintree:4", "hypercube:5",
	"torus:4,5", "grid:4,5", "ringcliques:3,5", "cliquepath:3,5",
	"randreg:30,4", "gnp:30,0.25", "chunglu:40,2.5,6", "barabasi:40,2",
}

// goldenVariant is one protocol configuration of the record. fused marks
// the configurations the record also holds at K = 7 (see recordEngines).
type goldenVariant struct {
	name   string
	serial func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error)
	fused  bool
}

func goldenVariants() []goldenVariant {
	churn := AgentOptions{ChurnRate: 0.01}
	return []goldenVariant{
		{"push",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{})
			}, true},
		{"push-f0.25",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{FailureProb: 0.25})
			}, true},
		{"push-pull",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{})
			}, true},
		{"push-pull-f0.25",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{FailureProb: 0.25})
			}, true},
		{"visitx",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewVisitExchange(g, s, rng, AgentOptions{})
			}, true},
		{"visitx-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewVisitExchange(g, s, rng, churn)
			}, false},
		{"meetx",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewMeetExchange(g, s, rng, AgentOptions{})
			}, true},
		{"meetx-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewMeetExchange(g, s, rng, churn)
			}, false},
		{"hybrid",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, AgentOptions{})
			}, true},
		{"hybrid-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, churn)
			}, true},
	}
}

// goldenObserved are the configurations whose observer sequences are
// recorded: every protocol that takes an observer, push-pull with failing
// calls (which are observed) and the hybrid with churn (whose respawns are
// not).
func goldenObserved(obs MoveObserver) []goldenVariant {
	churn := AgentOptions{ChurnRate: 0.01, Observer: obs}
	return []goldenVariant{
		{name: "push-pull", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPushPull(g, s, rng, PushPullOptions{Observer: obs})
		}},
		{name: "push-pull-f0.25", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPushPull(g, s, rng, PushPullOptions{FailureProb: 0.25, Observer: obs})
		}},
		{name: "visitx", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewVisitExchange(g, s, rng, AgentOptions{Observer: obs})
		}},
		{name: "meetx", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewMeetExchange(g, s, rng, AgentOptions{Observer: obs})
		}},
		{name: "hybrid", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewHybrid(g, s, rng, AgentOptions{Observer: obs})
		}},
		{name: "hybrid-churn", serial: func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewHybrid(g, s, rng, churn)
		}},
	}
}

const (
	goldenSeed       = 20190729
	goldenTrials     = 7
	goldenObsTrials  = 2
	goldenMaxRounds  = 3000
	goldenGraphSeed  = 1
	goldenFusedWidth = 7
)

// digestResults hashes the outcome fields of every trial, in trial order.
func digestResults(res []Result) string {
	h := sha256.New()
	for _, r := range res {
		fmt.Fprintf(h, "%d %v %d %d %v\n", r.Rounds, r.Completed, r.Messages, r.AllAgentsRound, r.History)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSource is the first vertex of positive degree: a sparse random
// realization may isolate vertex 0.
func goldenSource(g *graph.Graph) graph.Vertex {
	s := graph.Vertex(0)
	for g.Degree(s) == 0 {
		s++
	}
	return s
}

// recordEngines computes every digest of the record at the current code.
func recordEngines(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, spec := range goldenSpecs {
		g := seededGraph(t, spec, goldenGraphSeed)
		src := goldenSource(g)
		for _, v := range goldenVariants() {
			serial, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
				return v.serial(g, src, rng)
			}, goldenTrials, goldenMaxRounds, goldenSeed)
			if err != nil {
				t.Fatalf("%s %s: %v", spec, v.name, err)
			}
			key := spec + "/" + v.name + "/K=1"
			out[key] = digestResults(serial)
			if v.fused {
				// The record also holds the digests of the 7-lane fused
				// bundles trials once ran in; each equals its K = 1
				// entry, so the one-trial engine is held to both.
				out[fmt.Sprintf("%s/%s/K=%d", spec, v.name, goldenFusedWidth)] = out[key]
			}
		}
		// Observer sequences: trials run one after the other so the
		// callbacks arrive in one order.
		var h hash.Hash
		obs := func(round int, from, to graph.Vertex) { fmt.Fprintf(h, "%d %d %d\n", round, from, to) }
		for _, v := range goldenObserved(obs) {
			h = sha256.New()
			for tr := 0; tr < goldenObsTrials; tr++ {
				p, err := v.serial(g, src, xrand.New(xrand.TrialSeed(goldenSeed, tr)))
				if err != nil {
					t.Fatalf("%s %s observer: %v", spec, v.name, err)
				}
				r := Run(g, p, goldenMaxRounds)
				fmt.Fprintf(h, "end %d %d\n", r.Rounds, r.Messages)
			}
			out[spec+"/"+v.name+"/observer"] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

// TestGoldenEngines pins every engine's bytes across refactors: digests of
// Rounds, Completed, Messages, AllAgentsRound and History for all five
// protocols on every graph family — reliable and lossy links, churn —
// and of the observer (round, from, to) sequences, against
// testdata/golden.json. The record was taken from the serial processes
// before any of them was folded into a fused bundle, and its K = 7 entries
// from those bundles; a deletion that keeps this test green changed no
// outcome. `go test -run TestGoldenEngines -update`
// rewrites the file, which a behaviour-preserving change never needs.
func TestGoldenEngines(t *testing.T) {
	if len(goldenSpecs) != len(graph.SpecFamilies()) {
		t.Fatalf("%d golden specs for %d families", len(goldenSpecs), len(graph.SpecFamilies()))
	}
	got := recordEngines(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %.12s, recorded %.12s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in the record", k)
		}
	}
}
