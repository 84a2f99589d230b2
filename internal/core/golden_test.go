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
	"reflect"
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

// goldenVariant is one protocol configuration of the record. batched is
// nil where the configuration is recorded at K = 1 only.
type goldenVariant struct {
	name    string
	serial  func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error)
	batched func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error)
}

func goldenVariants() []goldenVariant {
	churn := AgentOptions{ChurnRate: 0.01}
	return []goldenVariant{
		{"push",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{})
			}},
		{"push-f0.25",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{FailureProb: 0.25})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{FailureProb: 0.25})
			}},
		{"push-pull",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{})
			}},
		{"push-pull-f0.25",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{FailureProb: 0.25})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{FailureProb: 0.25})
			}},
		{"visitx",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewVisitExchange(g, s, rng, AgentOptions{})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedVisitExchange(g, s, rngs, AgentOptions{})
			}},
		{"visitx-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewVisitExchange(g, s, rng, churn)
			}, nil},
		{"meetx",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewMeetExchange(g, s, rng, AgentOptions{})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedMeetExchange(g, s, rngs, AgentOptions{})
			}},
		{"meetx-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewMeetExchange(g, s, rng, churn)
			}, nil},
		{"hybrid",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, AgentOptions{})
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, AgentOptions{})
			}},
		{"hybrid-churn",
			func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, churn)
			},
			func(g *graph.Graph, s graph.Vertex, rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, churn)
			}},
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
	goldenBundleWide = 7
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
			out[spec+"/"+v.name+"/K=1"] = digestResults(serial)
			if v.batched == nil {
				continue
			}
			wide, err := RunManyLanes(g, func(rngs []*xrand.RNG) (LaneProcess, error) {
				return v.batched(g, src, rngs)
			}, goldenTrials, goldenMaxRounds, goldenSeed, goldenBundleWide, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", spec, v.name, err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Errorf("%s %s: K=%d bundles diverge from K=1", spec, v.name, goldenBundleWide)
			}
			out[fmt.Sprintf("%s/%s/K=%d", spec, v.name, goldenBundleWide)] = digestResults(wide)
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
// protocols on every graph family — reliable and lossy links, churn, K = 1
// and K = 7 — and of the observer (round, from, to) sequences, against
// testdata/golden.json. The record was taken from the serial processes
// before any of them was folded into its bundle; a deletion that keeps this
// test green changed no outcome. `go test -run TestGoldenEngines -update`
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
