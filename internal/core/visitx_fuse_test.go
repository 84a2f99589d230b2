package core

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The fused-mark contract: once every agent is informed, VisitExchange
// folds the pass-1 occupancy stamping into the walk step
// (agents.StepStamped). Draws are keyed (seed, agent, round) either way,
// so the full Result — Rounds, Messages, AllAgentsRound, History — must be
// bit-identical to the separate-pass path, at any GOMAXPROCS and at any
// budget: forced budgets 2 and 8 drive the sharded stamp stores.
func TestVisitExchangeFusedMarkEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Star(96),
		graph.DoubleStar(48),
		graph.Hypercube(6),
	}
	opts := []AgentOptions{
		{},             // simple walks, alpha 1
		{Lazy: LazyOn}, // exercises the lazy stamp loop
		{Alpha: 2.0},   // more agents than vertices
		{Count: 5},     // sparse agents: fused regime hits late
	}
	for _, g := range graphs {
		for oi, o := range opts {
			run := func(fuse bool, b budget) Result {
				v, err := NewVisitExchange(g, 0, xrand.New(99), o)
				if err != nil {
					t.Fatal(err)
				}
				v.fuseMark = fuse
				v.setBudget(b)
				var out [1]Result
				driveBatch(g, newProcessLane(v), DefaultMaxRounds(g), out[:], nil, 0)
				return out[0]
			}
			unfused := run(false, budget{})
			for _, shards := range forcedBudgets {
				fused := run(true, forced(shards))
				if !reflect.DeepEqual(fused, unfused) {
					t.Errorf("budget=%d %s opts[%d]: fused and unfused results differ:\nfused   %+v\nunfused %+v",
						shards, g.Name(), oi, fused, unfused)
				}
				if !fused.Completed {
					t.Errorf("budget=%d %s opts[%d]: run did not complete", shards, g.Name(), oi)
				}
			}
		}
	}
}
