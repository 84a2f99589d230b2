package core

import (
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// The parallelism-budget contract: RunManyLanes spends processors on
// bundles first and hands rounds only what is left, a round splits only
// when it carries two shards' worth of work, and no budget ever changes a
// result. The dispatch assertions read par.Stats, which counts the shards
// of multi-shard calls only, so a zero delta proves every round ran inline.

// forced is a budget that splits every phase of two or more units. The
// engine's own grain keeps test-sized graphs inline at any budget, and the
// equivalence suites exist to pin the sharded code paths.
func forced(shards int) budget { return budget{shards, 1} }

// forcedBudgets are the inner budgets the equivalence suites force through
// the hook; 8 exceeds the processors of most runners, which is fine —
// surplus shards run on the caller through the same code.
var forcedBudgets = []int{1, 2, 8}

// driveLanes runs `trials` trials in bundles of k under budget b, one
// bundle after the other on the caller: RunManyLanes minus its policy.
func driveLanes(t *testing.T, g *graph.Graph, factory LaneFactory, trials, k, maxRounds int, seed uint64, b budget) []Result {
	t.Helper()
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	out := make([]Result, trials)
	for t0 := 0; t0 < trials; t0 += k {
		t1 := min(t0+k, trials)
		rngs := make([]*xrand.RNG, t1-t0)
		for i := range rngs {
			rngs[i] = xrand.New(xrand.TrialSeed(seed, t0+i))
		}
		bp, err := factory(rngs)
		if err != nil {
			t.Fatal(err)
		}
		bp.(budgeted).setBudget(b)
		driveBatch(g, bp, maxRounds, out[t0:t1], nil, t0)
	}
	return out
}

// dispatched returns how many shards f's multi-shard calls produced.
func dispatched(f func()) int64 {
	h0, i0 := par.Stats()
	f()
	h1, i1 := par.Stats()
	return (h1 - h0) + (i1 - i0)
}

func TestBudgetFor(t *testing.T) {
	for _, c := range []struct {
		b    budget
		work int
		want int
	}{
		{budget{}, 1 << 20, 1},             // no budget: never splits
		{budget{1, shardWork}, 1 << 20, 1}, // one shard allowed
		{budget{8, shardWork}, 0, 1},       // nothing to do
		{budget{8, shardWork}, 2*shardWork - 1, 1},
		{budget{8, shardWork}, 2 * shardWork, 2},
		{budget{8, shardWork}, 5*shardWork + 7, 5},
		{budget{2, shardWork}, 1 << 20, 2}, // capped by the budget
		{forced(8), 1, 1},
		{forced(8), 3, 3},
		{forced(8), 100, 8},
	} {
		if got := c.b.For(c.work); got != c.want {
			t.Errorf("%+v.For(%d) = %d, want %d", c.b, c.work, got, c.want)
		}
	}
}

// TestBudgetEveryProcessTakesIt: the hook reaches every process of the
// package, single trials (through their views) and bundles.
func TestBudgetEveryProcessTakesIt(t *testing.T) {
	g := graph.Hypercube(4)
	for _, pc := range detProtocols() {
		p, err := pc.factory(g, 0, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(budgeted); !ok {
			t.Errorf("single-trial %s does not take a budget", pc.name)
		}
	}
	for _, pc := range nestedProtos(g) {
		bp, err := pc.batched([]*xrand.RNG{xrand.New(1), xrand.New(2)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bp.(budgeted); !ok {
			t.Errorf("bundle %s does not take a budget", pc.name)
		}
	}
}

// TestBudgetForcedSerialEquivalence: every single trial — whose sharded
// draw, mark, deposit, pickup and churn paths the policy rarely takes —
// returns the inline Result at forced budgets 2 and 8, on a uniform-degree
// graph and on the star (boundary mode, lazy meet-exchange, the
// all-informed deposit scan).
func TestBudgetForcedSerialEquivalence(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Hypercube(8), graph.Star(301), graph.DoubleStar(96)} {
		for _, pc := range detProtocols() {
			run := func(b budget) Result {
				p, err := pc.factory(g, 0, xrand.New(7))
				if err != nil {
					t.Fatal(err)
				}
				lane := p.bundle()
				lane.setBudget(b)
				var out [1]Result
				driveBatch(g, lane, 4000, out[:], nil, 0)
				return out[0]
			}
			base := run(budget{})
			for _, shards := range forcedBudgets {
				if got := run(forced(shards)); !reflect.DeepEqual(base, got) {
					t.Errorf("%s on %s: forced budget %d diverges from inline: rounds %d vs %d, messages %d vs %d",
						pc.name, g.Name(), shards, base.Rounds, got.Rounds, base.Messages, got.Messages)
				}
			}
		}
	}
}

// nestedProtos are the five fused bundles as the experiment layer builds
// them, in the order push, push-pull, visit-exchange, meet-exchange, hybrid.
func nestedProtos(g *graph.Graph) []laneProto {
	byName := map[string]laneProto{}
	for _, pc := range laneProtos(g, 0) {
		byName[pc.name] = pc
	}
	for _, pc := range batchedProtos(g, 0) {
		byName[pc.name] = laneProto(pc)
	}
	var out []laneProto
	for _, name := range []string{"push", "push-pull", "visit-exchange", "meet-exchange", "hybrid"} {
		out = append(out, byName[name])
	}
	return out
}

// TestNestedDispatchSweepStaysInline: with at least as many bundles as
// processors, a sweep of any protocol dispatches nothing — on a graph
// large enough that every dense round would split if handed a budget.
func TestNestedDispatchSweepStaysInline(t *testing.T) {
	g := graph.Hypercube(13)
	const trials, seed = 16, 3
	for _, pc := range nestedProtos(g) {
		var res []Result
		n := atGOMAXPROCS(t, 4, func() int64 {
			return dispatched(func() {
				var err error
				if res, err = RunManyLanes(g, pc.batched, trials, 0, seed, 0, nil); err != nil {
					t.Fatal(err)
				}
			})
		})
		if n != 0 {
			t.Errorf("%s: %d-trial sweep at GOMAXPROCS=4 dispatched %d shards, want 0", pc.name, trials, n)
		}
		// The same sweep under a forced inner budget does dispatch, and
		// returns the same results.
		var forcedRes []Result
		if dispatched(func() { forcedRes = driveLanes(t, g, pc.batched, trials, 4, 0, seed, budget{4, shardWork}) }) == 0 {
			t.Errorf("%s: a budget of 4 on %s dispatched nothing: the sweep assertion proves nothing", pc.name, g.Name())
		}
		if !reflect.DeepEqual(res, forcedRes) {
			t.Errorf("%s: sweep results differ between inline and budgeted bundles", pc.name)
		}
	}
}

// TestNestedDispatchBoundaryPhaseStaysInline: a single push trial on the
// star owns the whole machine, yet its ~n log n boundary-phase rounds of
// one sender each — and its short dense phase, below two shards of work —
// must never dispatch.
func TestNestedDispatchBoundaryPhaseStaysInline(t *testing.T) {
	g := graph.Star(4096)
	var res Result
	n := atGOMAXPROCS(t, 4, func() int64 {
		return dispatched(func() {
			p, err := NewPush(g, 0, xrand.New(5), PushOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res = Run(g, p, 0)
		})
	})
	if !res.Completed || res.Rounds < 4*g.N() {
		t.Fatalf("star push finished in %d rounds (completed %v), want a long boundary phase", res.Rounds, res.Completed)
	}
	if n != 0 {
		t.Errorf("single-trial star push dispatched %d shards over %d rounds, want 0", n, res.Rounds)
	}
}

// TestNestedDispatchIdleCoresShardDenseRounds: one bundle on four
// processors gets the idle three, its dense rounds do split, and the
// result equals the single-processor one.
func TestNestedDispatchIdleCoresShardDenseRounds(t *testing.T) {
	g := graph.Hypercube(14)
	const trials, seed = 2, 9
	for _, pc := range nestedProtos(g) {
		run := func(procs int) ([]Result, int64) {
			var res []Result
			n := atGOMAXPROCS(t, procs, func() int64 {
				return dispatched(func() {
					var err error
					if res, err = RunManyLanes(g, pc.batched, trials, 0, seed, trials, nil); err != nil {
						t.Fatal(err)
					}
				})
			})
			return res, n
		}
		serial, n1 := run(1)
		wide, n4 := run(4)
		if n1 != 0 {
			t.Errorf("%s: GOMAXPROCS=1 dispatched %d shards", pc.name, n1)
		}
		if n4 == 0 {
			t.Errorf("%s: one dense bundle on four processors never dispatched", pc.name)
		}
		if !reflect.DeepEqual(serial, wide) {
			t.Errorf("%s: single-bundle results differ between GOMAXPROCS 1 and 4", pc.name)
		}
	}
}

// The benchmarks below are meant for -cpu 1,2 and therefore loop on b.N:
// under go 1.24 a b.Loop benchmark measures inside the harness's trial
// run, before the first -cpu value is applied.

// BenchmarkStarPushBoundary is one push trial on star:4096: ~36k rounds,
// all but a handful in the boundary phase. A second processor must not
// slow it down.
func BenchmarkStarPushBoundary(b *testing.B) {
	g := graph.Star(4096)
	g.WalkIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPush(g, 0, xrand.New(5), PushOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res := Run(g, p, 0); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkRunManyLanes is a 16-trial adaptive-K sweep of each protocol at
// n = 4096 (the star for push — the inversion's worst case — and the
// hypercube for the rest). The second processor must buy throughput, not
// dispatch.
func BenchmarkRunManyLanes(b *testing.B) {
	star, cube := graph.Star(4096), graph.Hypercube(12)
	names := []string{"push", "push-pull", "visitx", "meetx", "hybrid"}
	for i, name := range names {
		g := cube
		if i == 0 {
			g = star
		}
		pc := nestedProtos(g)[i]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunManyLanes(g, pc.batched, 16, 0, 1, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
