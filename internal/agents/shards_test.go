package agents

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The shard-count contract: SetShards decides only who executes a step.
// The engine's budget rarely hands a walk system more than one shard, so
// these tests force 2 and 8 to keep the sharded paths — the churn respawn
// merge, the atomic stamp stores — pinned bit for bit against the inline
// step. 8 exceeds the processors of most runners: surplus shards run on
// the caller, which is the same code.

// TestBudgetShardedWalksMatchInline: positions, respawn lists and stamps of
// a serial walk system are identical at 1, 2 and 8 shards, for simple,
// lazy, churned and stamped stepping.
func TestBudgetShardedWalksMatchInline(t *testing.T) {
	g := graph.DoubleStar(64)
	type snap struct {
		pos, stamp []uint32
		resp       []int
	}
	run := func(cfg Config, stamped bool, shards int) snap {
		w, err := New(g, cfg, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		w.SetShards(shards)
		var s snap
		s.stamp = make([]uint32, g.N())
		for round := 1; round <= 25; round++ {
			if stamped {
				w.StepStamped(s.stamp, uint32(round))
			} else {
				w.Step(nil)
			}
			s.resp = append(s.resp, w.Respawned()...)
			for _, p := range w.Positions() {
				s.pos = append(s.pos, uint32(p))
			}
		}
		return s
	}
	for _, c := range []struct {
		cfg     Config
		stamped bool
	}{
		{Config{Count: 200}, false},
		{Config{Count: 200, Lazy: true}, false},
		{Config{Count: 200, ChurnRate: 0.1}, false},
		{Config{Count: 200}, true},
		{Config{Count: 200, Lazy: true}, true},
		{Config{Count: 3}, true}, // fewer agents than shards
	} {
		base := run(c.cfg, c.stamped, 1)
		for _, shards := range []int{2, 8} {
			if got := run(c.cfg, c.stamped, shards); !reflect.DeepEqual(base, got) {
				t.Errorf("%+v stamped=%v: %d shards diverge from inline", c.cfg, c.stamped, shards)
			}
		}
	}
}

// TestBudgetShardedBatchedWalksMatchInline: the fused stepper, with lanes
// masked off mid-run and one lane stamped, is identical at 1, 2 and 8
// shards — including when the owner changes the count between rounds.
func TestBudgetShardedBatchedWalksMatchInline(t *testing.T) {
	const k, count, rounds = 5, 300, 30
	for _, g := range []*graph.Graph{graph.Hypercube(8), graph.Star(257)} {
		for _, lazy := range []bool{false, true} {
			run := func(shards func(round int) int) (pos [][]graph.Vertex, stamp []uint32) {
				bw, err := NewBatched(g, Config{Count: count, Lazy: lazy}, trialRNGs(42, k))
				if err != nil {
					t.Fatal(err)
				}
				stamp = make([]uint32, g.N())
				stamps := make([][]uint32, k)
				stamps[2] = stamp
				epochs := make([]uint32, k)
				active := []bool{true, true, true, true, true}
				for r := 1; r <= rounds; r++ {
					active[1] = r <= 10 // lane 1 finishes early
					epochs[2] = uint32(r)
					bw.SetShards(shards(r))
					bw.StepStamped(active, stamps, epochs)
					for tr := 0; tr < k; tr++ {
						pos = append(pos, append([]graph.Vertex(nil), bw.Lane(tr)...))
					}
				}
				return pos, stamp
			}
			basePos, baseStamp := run(func(int) int { return 1 })
			for name, shards := range map[string]func(int) int{
				"2":       func(int) int { return 2 },
				"8":       func(int) int { return 8 },
				"varying": func(r int) int { return 1 + r%3 },
			} {
				pos, stamp := run(shards)
				if !reflect.DeepEqual(basePos, pos) || !reflect.DeepEqual(baseStamp, stamp) {
					t.Errorf("%s lazy=%v: %s shards diverge from inline", g.Name(), lazy, name)
				}
			}
		}
	}
}
