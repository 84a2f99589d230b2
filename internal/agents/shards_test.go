package agents

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
)

// The shard-count contract: SetShards decides only who executes a step.
// The engine's budget rarely hands a walk system more than one shard, so
// these tests force 2 and 8 to keep the sharded paths — the block split
// and the churn respawn merge — pinned bit for bit against the inline
// step. 8 exceeds the processors of most runners: surplus shards run on
// the caller, which is the same code. TestBudgetShardedWalksMatchInline
// (golden_test.go) holds sharded trajectories to the recorded digests.

// TestBudgetShardedBatchedWalksMatchInline: the fused stepper, with lanes
// masked off mid-run, is identical at 1, 2 and 8 shards — including when
// the owner changes the count between rounds — for simple, lazy and
// churned walks, and with fewer agents than shards.
func TestBudgetShardedBatchedWalksMatchInline(t *testing.T) {
	const k, rounds = 5, 30
	type snap struct {
		pos  [][]graph.Vertex
		resp [][]int
	}
	for _, g := range []*graph.Graph{graph.Hypercube(8), graph.Star(257)} {
		for _, cfg := range []Config{
			{Count: 300},
			{Count: 300, Lazy: true},
			{Count: 300, ChurnRate: 0.1},
			{Count: 300, Lazy: true, ChurnRate: 0.1},
			{Count: 3}, // fewer agents than shards
		} {
			run := func(shards func(round int) int) (s snap) {
				bw, err := NewBatched(g, cfg, trialRNGs(42, k))
				if err != nil {
					t.Fatal(err)
				}
				active := []bool{true, true, true, true, true}
				for r := 1; r <= rounds; r++ {
					active[1] = r <= 10 // lane 1 finishes early
					bw.SetShards(shards(r))
					bw.Step(active)
					for tr := 0; tr < k; tr++ {
						s.pos = append(s.pos, append([]graph.Vertex(nil), bw.Lane(tr)...))
						s.resp = append(s.resp, append([]int{}, bw.Respawned(tr)...))
					}
				}
				return s
			}
			base := run(func(int) int { return 1 })
			for name, shards := range map[string]func(int) int{
				"2":       func(int) int { return 2 },
				"8":       func(int) int { return 8 },
				"varying": func(r int) int { return 1 + r%3 },
			} {
				if got := run(shards); !reflect.DeepEqual(base, got) {
					t.Errorf("%s %+v: %s shards diverge from inline", g.Name(), cfg, name)
				}
			}
		}
	}
}
