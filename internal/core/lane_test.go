package core

import (
	"fmt"
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The lane-equivalence contract: for every protocol, seed, and bundle
// width K, RunManyLanes must return []Result bit-identical to RunMany's
// serial processes — Rounds, Completed, Messages, AllAgentsRound, and the
// full History per trial — at any GOMAXPROCS. These tests pin the fused
// bundles of the call protocols (push, push-pull) and the hybrid, added by
// the lane refactor, for K in {1, 2, 7} (one lane, partial bundle, prime
// width) at GOMAXPROCS 1 and 8 — and, since the engine's budget keeps
// test-sized bundles inline at any GOMAXPROCS, again under inner budgets
// {1, 2, 8} forced through the hook (see budget_test.go), so the sharded
// lane passes, dense draws and walk steps stay pinned; batched_test.go
// pins visit-exchange and meet-exchange the same way. Push's serial
// reference is the K = 1 view NewPush returns, its bundle being its only
// implementation; golden_test.go and exact_test.go hold that view to
// outcomes the bundle did not produce.

// laneProto pairs a serial factory with its fused bundle factory.
type laneProto struct {
	name    string
	serial  Factory
	batched LaneFactory
}

func laneProtos(g *graph.Graph, s graph.Vertex) []laneProto {
	return []laneProto{
		{
			name: "push",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{})
			},
		},
		{
			name: "push-failures",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewPush(g, s, rng, PushOptions{FailureProb: 0.25})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{FailureProb: 0.25})
			},
		},
		{
			name: "push-pull",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{})
			},
		},
		{
			name: "push-pull-failures",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, s, rng, PushPullOptions{FailureProb: 0.25})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{FailureProb: 0.25})
			},
		},
		{
			name: "hybrid",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, AgentOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, AgentOptions{})
			},
		},
		{
			name: "hybrid-sparse-agents",
			serial: func(rng *xrand.RNG) (Process, error) {
				return NewHybrid(g, s, rng, AgentOptions{Count: 5})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, AgentOptions{Count: 5})
			},
		},
	}
}

// compareLanes runs k trials through both engines — the fused one at
// GOMAXPROCS 1 and 8 and under each forced inner budget — and reports any
// per-trial divergence.
func compareLanes(t *testing.T, g *graph.Graph, pc laneProto, k, maxRounds int, seed uint64) {
	t.Helper()
	serial, err := RunMany(g, pc.serial, k, maxRounds, seed)
	if err != nil {
		t.Fatalf("%s on %s: serial: %v", pc.name, g.Name(), err)
	}
	check := func(how string, batched []Result) {
		t.Helper()
		for tr := range serial {
			if !reflect.DeepEqual(serial[tr], batched[tr]) {
				t.Errorf("%s on %s K=%d %s trial %d: batched diverges\nserial:  rounds %d completed %v messages %d allAgents %d hist %d\nbatched: rounds %d completed %v messages %d allAgents %d hist %d",
					pc.name, g.Name(), k, how, tr,
					serial[tr].Rounds, serial[tr].Completed, serial[tr].Messages, serial[tr].AllAgentsRound, len(serial[tr].History),
					batched[tr].Rounds, batched[tr].Completed, batched[tr].Messages, batched[tr].AllAgentsRound, len(batched[tr].History))
			}
		}
	}
	for _, procs := range []int{1, 8} {
		check(fmt.Sprintf("GOMAXPROCS=%d", procs), atGOMAXPROCS(t, procs, func() []Result {
			res, err := RunManyLanes(g, pc.batched, k, maxRounds, seed, k, nil)
			if err != nil {
				t.Fatalf("%s on %s: batched: %v", pc.name, g.Name(), err)
			}
			return res
		}))
	}
	for _, shards := range forcedBudgets {
		check(fmt.Sprintf("budget=%d", shards), driveLanes(t, g, pc.batched, k, k, maxRounds, seed, forced(shards)))
	}
}

// TestLaneEquivalenceBatchedCallProtocols: fused push/push-pull/hybrid
// bundles equal serial RunMany results per trial on mixed-degree (star:
// push's coupon tail enters boundary mode), bridge-wait (double star:
// push-pull's boundary mode), uniform-degree (hypercube), and seeded
// streamed random (G(n, p) through the two-pass skip-sampling builder)
// graphs.
func TestLaneEquivalenceBatchedCallProtocols(t *testing.T) {
	gnpSpec, err := graph.ParseSpec("gnp:400,0.05")
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := gnpSpec.BuildSeeded(417)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(gnp) {
		// Fixed sampler seed, so this is deterministic: a trip here means
		// the sampler changed, not that the engines diverge.
		t.Fatal("gnp:400,0.05 @417 realization is disconnected")
	}
	graphs := []*graph.Graph{
		graph.Star(301),      // extreme degree mix; push waits Ω(n log n)
		graph.DoubleStar(96), // the Ω(n) bridge wait drives boundary mode
		graph.Hypercube(7),   // n = 128, uniform degree 7
		gnp,                  // irregular degrees ~20 off the streaming sampler
	}
	const seed = 2024
	for _, g := range graphs {
		for _, pc := range laneProtos(g, 0) {
			for _, k := range []int{1, 2, 7} {
				compareLanes(t, g, pc, k, 0, seed)
			}
		}
	}
}

// TestLaneEquivalenceWordPaths: the word-parallel dense passes — the
// 64-vertex-block exchange collect (collectExchangeDenseWords, with its
// all-informed and none-informed block arms) and BatchedPush's
// scatter-then-CommitNew frontier commit (taken once a round's sender
// count reaches one per word) — must reproduce the serial scalar engines
// bit for bit. The complete graph saturates in a few rounds, so most
// blocks take the all-informed arm and push rounds exceed the word-commit
// sender threshold almost immediately; the cycle spreads one vertex per
// direction per round, keeping the boundary word mixed for the whole run;
// the 193-vertex sizes exercise the partial tail block (ghost bits past
// Len() must keep the tail word off the all-informed arm).
func TestLaneEquivalenceWordPaths(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Complete(193), // dense: all-informed blocks, instant word commits
		graph.Cycle(193),    // sparse: mixed boundary words every round
		graph.Complete(64),  // exactly one word, no tail
	}
	const seed = 99
	for _, g := range graphs {
		for _, pc := range laneProtos(g, 0) {
			for _, k := range []int{1, 3} {
				compareLanes(t, g, pc, k, 0, seed)
			}
		}
	}
}

// TestLaneEquivalenceMaxRounds: a lane cut off at maxRounds must report
// the same truncated Result (Completed false, Rounds == maxRounds, partial
// History) as the serial path, for every fused protocol.
func TestLaneEquivalenceMaxRounds(t *testing.T) {
	g := graph.Star(301)
	const seed, k, maxRounds = 7, 7, 3
	for _, pc := range laneProtos(g, 0) {
		compareLanes(t, g, pc, k, maxRounds, seed)
	}
}

// TestLaneEquivalenceIsolatedVertices: on a graph with isolated vertices —
// the PR-2 callerCount regression shape — the fused bundles must charge
// exactly the serial per-round messages (isolated vertices place no call)
// and diverge nowhere else. Isolated vertices can never be informed, so
// every run is driven into the maxRounds cutoff, with enough rounds that
// push and push-pull lanes enter boundary mode on the way.
func TestLaneEquivalenceIsolatedVertices(t *testing.T) {
	g := ringWithIsolated(t)
	const seed, maxRounds = 11, 12
	for _, pc := range laneProtos(g, 0) {
		for _, k := range []int{1, 2, 7} {
			compareLanes(t, g, pc, k, maxRounds, seed)
		}
	}
}

// TestRunManyLanesAdaptiveK: the adaptive width never changes results —
// RunManyLanes with k <= 0 (AdaptiveBatchK) equals explicit K = 1.
func TestRunManyLanesAdaptiveK(t *testing.T) {
	g := graph.Hypercube(6)
	const seed, trials = 5, 11
	pc := laneProtos(g, 0)[0]
	want, err := RunMany(g, pc.serial, trials, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunManyLanes(g, pc.batched, trials, 0, seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("adaptive-K lane results diverge from serial")
	}
	if k := AdaptiveBatchK(g, trials); k < 1 || k > batchK {
		t.Errorf("AdaptiveBatchK = %d, want in [1, %d]", k, batchK)
	}
	if k := AdaptiveBatchK(g, 1); k != 1 {
		t.Errorf("AdaptiveBatchK(1 trial) = %d, want 1", k)
	}
}

// TestHybridBoundaryEquivalence: the hybrid's boundary-active exchange
// phase must be bit-identical to the dense path — a non-boundary vertex's
// exchange provably transfers nothing, and counter-based streams make
// skipping its draw invisible to every other vertex. The double star's
// bridge wait and the isolated-vertex ring both force boundary entry.
func TestHybridBoundaryEquivalence(t *testing.T) {
	type hcase struct {
		g         *graph.Graph
		maxRounds int
	}
	cases := []hcase{
		{graph.DoubleStar(96), 0},
		{graph.Star(128), 0},
		{ringWithIsolated(t), 12},
	}
	for _, procs := range []int{1, 8} {
		for _, c := range cases {
			run := func(useBoundary bool) Result {
				return atGOMAXPROCS(t, procs, func() Result {
					h, err := NewHybrid(c.g, 0, xrand.New(77), AgentOptions{})
					if err != nil {
						t.Fatal(err)
					}
					h.useBoundary = useBoundary
					return Run(c.g, h, c.maxRounds)
				})
			}
			bounded, dense := run(true), run(false)
			if !reflect.DeepEqual(bounded, dense) {
				t.Errorf("procs=%d %s: boundary and dense hybrid results differ:\nboundary %+v\ndense    %+v",
					procs, c.g.Name(), bounded, dense)
			}
		}
	}
}
