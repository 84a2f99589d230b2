package core

import (
	"reflect"
	"runtime"
	"testing"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// The deterministic-parallelism contract: for a given seed, every protocol
// produces a bit-identical Result — rounds, messages, and the full History
// — no matter how many processors run the trials. These tests pin that at
// GOMAXPROCS 1, 2, and 8.

func detProtocols() []struct {
	name    string
	factory func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error)
} {
	return []struct {
		name    string
		factory func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error)
	}{
		{"push", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPush(g, s, rng, PushOptions{})
		}},
		{"push-failures", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPush(g, s, rng, PushOptions{FailureProb: 0.2})
		}},
		{"push-pull", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPushPull(g, s, rng, PushPullOptions{})
		}},
		{"visit-exchange", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewVisitExchange(g, s, rng, AgentOptions{})
		}},
		{"visit-exchange-churn", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewVisitExchange(g, s, rng, AgentOptions{ChurnRate: 0.05})
		}},
		{"meet-exchange", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewMeetExchange(g, s, rng, AgentOptions{})
		}},
		{"meet-exchange-lazy", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewMeetExchange(g, s, rng, AgentOptions{Lazy: LazyOn})
		}},
		{"hybrid", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewHybrid(g, s, rng, AgentOptions{})
		}},
	}
}

// runAt executes one full run at the given GOMAXPROCS setting.
func runAt(t *testing.T, procs int, factory func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error), g *graph.Graph, s graph.Vertex, seed uint64) Result {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	par.Refresh()
	defer func() {
		runtime.GOMAXPROCS(prev)
		par.Refresh()
	}()
	p, err := factory(g, s, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return Run(g, p, 0)
}

// TestDeterminismAcrossGOMAXPROCS: identical seed ⇒ identical Result
// (rounds, messages, full History) at GOMAXPROCS 1, 2, and 8, for every
// protocol, on the hypercube (n = 16384, dense rounds) and on the star,
// which exercises mixed degree-1/huge-degree paths.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Hypercube(14), // n = 16384: dense rounds
		graph.Star(4097),    // extreme degrees; bipartite (lazy meetx)
	}
	for _, g := range graphs {
		for _, pc := range detProtocols() {
			for seed := uint64(1); seed <= 2; seed++ {
				base := runAt(t, 1, pc.factory, g, 0, seed)
				for _, procs := range []int{2, 8} {
					got := runAt(t, procs, pc.factory, g, 0, seed)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s on %s seed %d: GOMAXPROCS=%d diverges from 1: rounds %d vs %d, messages %d vs %d, history equal: %v",
							pc.name, g.Name(), seed, procs,
							base.Rounds, got.Rounds, base.Messages, got.Messages,
							reflect.DeepEqual(base.History, got.History))
					}
				}
			}
		}
	}
}

// TestRunManyDeterministicAcrossGOMAXPROCS: the trial pool must hand each
// trial the same derived stream no matter how many workers execute it.
func TestRunManyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := graph.Hypercube(8)
	run := func(procs int) []Result {
		prev := runtime.GOMAXPROCS(procs)
		par.Refresh()
		defer func() {
			runtime.GOMAXPROCS(prev)
			par.Refresh()
		}()
		res, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
			return NewVisitExchange(g, 0, rng, AgentOptions{})
		}, 6, 0, 77)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); !reflect.DeepEqual(base, got) {
			t.Errorf("RunMany at GOMAXPROCS=%d diverges from 1", procs)
		}
	}
}

// TestWalksDeterministicAcrossGOMAXPROCS pins the agent layer directly:
// positions and respawn lists after many steps are identical at any
// processor count, including with churn (whose respawn list is the one
// order-sensitive output).
func TestWalksDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := graph.Hypercube(12)
	type snap struct {
		pos  []graph.Vertex
		resp []int
	}
	run := func(procs int, churn float64, lazy bool) snap {
		prev := runtime.GOMAXPROCS(procs)
		par.Refresh()
		defer func() {
			runtime.GOMAXPROCS(prev)
			par.Refresh()
		}()
		w, err := newWalksForTest(g, 5000, churn, lazy)
		if err != nil {
			t.Fatal(err)
		}
		var resp []int
		for r := 0; r < 30; r++ {
			w.Step()
			resp = append(resp, w.Respawned()...)
		}
		return snap{pos: w.Positions(), resp: resp}
	}
	for _, cfg := range []struct {
		churn float64
		lazy  bool
	}{{0, false}, {0, true}, {0.1, false}} {
		base := run(1, cfg.churn, cfg.lazy)
		for _, procs := range []int{2, 8} {
			got := run(procs, cfg.churn, cfg.lazy)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("walks (churn=%g lazy=%v) diverge at GOMAXPROCS=%d", cfg.churn, cfg.lazy, procs)
			}
		}
	}
}

// newWalksForTest builds a walk system with a fixed-seed RNG.
func newWalksForTest(g *graph.Graph, count int, churn float64, lazy bool) (*agents.Walks, error) {
	return agents.New(g, agents.Config{Count: count, ChurnRate: churn, Lazy: lazy}, xrand.New(1234))
}
