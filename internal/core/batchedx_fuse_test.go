package core

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The batched fused-stamp contract: lanes whose agents are all informed
// have their pass-1 occupancy stamping folded into the fused walk step
// (agents.BatchedWalks.StepStamped). Draws are keyed (seed, agent, round)
// either way, so the full per-trial Result — Rounds, Messages,
// AllAgentsRound, History — must be bit-identical to the separate-stage
// path, for any mix of fused and unfused lanes, at any GOMAXPROCS and at
// any inner budget: the forced budgets 2 and 8 are what drive the walk
// step's atomic stamp stores (see budget_test.go).
func TestBatchedVisitExchangeFusedStampEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Star(96),       // all-informed regime dominates the Ω(n) tail
		graph.DoubleStar(48), // bridge wait with mixed lane progress
		graph.Hypercube(6),
	}
	opts := []AgentOptions{
		{},             // simple walks, alpha 1
		{Lazy: LazyOn}, // exercises the lazy stamped walk loop
		{Alpha: 2.0},   // more agents than vertices
		{Count: 5},     // sparse agents: fused regime hits late per lane
	}
	const seed = 99
	for _, k := range []int{1, 2, 7} {
		for _, g := range graphs {
			for oi, o := range opts {
				run := func(fuse bool, b budget) []Result {
					return driveLanes(t, g, func(rngs []*xrand.RNG) (LaneProcess, error) {
						bp, err := NewBatchedVisitExchange(g, 0, rngs, o)
						if err == nil {
							bp.fuseMark = fuse
						}
						return bp, err
					}, k, k, 0, seed, b)
				}
				unfused := run(false, budget{})
				for _, shards := range forcedBudgets {
					fused := run(true, forced(shards))
					for tr := range fused {
						if !reflect.DeepEqual(fused[tr], unfused[tr]) {
							t.Errorf("K=%d budget=%d %s opts[%d] trial %d: fused and unfused batched results differ:\nfused   %+v\nunfused %+v",
								k, shards, g.Name(), oi, tr, fused[tr], unfused[tr])
						}
						if !fused[tr].Completed {
							t.Errorf("K=%d budget=%d %s opts[%d] trial %d: run did not complete", k, shards, g.Name(), oi, tr)
						}
					}
				}
			}
		}
	}
}
