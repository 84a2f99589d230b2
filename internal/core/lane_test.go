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
// single trials of a reference — Rounds, Completed, Messages,
// AllAgentsRound, and the full History per trial — at any GOMAXPROCS.
// These tests pin the bundles of the call protocols (push, push-pull),
// the hybrid and visit-exchange for K in {1, 2, 7} (one lane, partial bundle, prime width) at
// GOMAXPROCS 1 and 8. Their reference is the
// plain round of plain_test.go, which shares no boundary mode, side or
// sweep with the bundles; golden_test.go and exact_test.go hold the
// bundles to outcomes recorded before the serial engines were deleted and
// to exact laws. batched_test.go pins meet-exchange against its one-lane
// view and visit-exchange against the plain round on larger graphs.

// laneProto pairs a single-trial reference factory with a bundle factory.
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
				return plainPush(g, s, rng, 0), nil
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{})
			},
		},
		{
			name: "push-failures",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainPush(g, s, rng, 0.25), nil
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPush(g, s, rngs, PushOptions{FailureProb: 0.25})
			},
		},
		{
			name: "push-pull",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainPushPull(g, s, rng, 0), nil
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{})
			},
		},
		{
			name: "push-pull-failures",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainPushPull(g, s, rng, 0.25), nil
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedPushPull(g, s, rngs, PushPullOptions{FailureProb: 0.25})
			},
		},
		{
			name: "hybrid",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainHybrid(g, s, rng, AgentOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, AgentOptions{})
			},
		},
		{
			name: "hybrid-sparse-agents",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainHybrid(g, s, rng, AgentOptions{Count: 5})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedHybrid(g, s, rngs, AgentOptions{Count: 5})
			},
		},
	}
}

// compareLanes runs k trials through the reference and through the
// bundle — at GOMAXPROCS 1 and 8 — and reports any per-trial divergence.
func compareLanes(t *testing.T, g *graph.Graph, pc laneProto, k, maxRounds int, seed uint64) {
	t.Helper()
	serial, err := RunMany(g, pc.serial, k, maxRounds, seed)
	if err != nil {
		t.Fatalf("%s on %s: reference: %v", pc.name, g.Name(), err)
	}
	check := func(how string, batched []Result) {
		t.Helper()
		for tr := range serial {
			if !reflect.DeepEqual(serial[tr], batched[tr]) {
				t.Errorf("%s on %s K=%d %s trial %d: batched diverges\nreference: rounds %d completed %v messages %d allAgents %d hist %d\nbatched:   rounds %d completed %v messages %d allAgents %d hist %d",
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
}

// TestLaneEquivalenceBatchedCallProtocols: push/push-pull/hybrid bundles
// equal the plain reference's results per trial on mixed-degree (star:
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

// TestLaneEquivalenceWordPaths: the every-vertex pass — each call
// resolved inline and its transfer kept by the branch-free filter
// (collectExchangeDense) — and the word-walked informed and uninformed
// sides must reproduce the plain reference's one-call-at-a-time rounds bit
// for bit. The complete graph saturates in a few rounds, so most informed
// words are all ones; the cycle spreads one vertex per direction per
// round, keeping the boundary word mixed for the whole run; the 193-vertex
// sizes exercise the partial tail word (ghost bits past Len() must stay
// clear, or the uninformed side would enumerate vertices past n).
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
// History) as the reference, for every call protocol and the hybrid.
func TestLaneEquivalenceMaxRounds(t *testing.T) {
	g := graph.Star(301)
	const seed, k, maxRounds = 7, 7, 3
	for _, pc := range laneProtos(g, 0) {
		compareLanes(t, g, pc, k, maxRounds, seed)
	}
}

// TestLaneEquivalenceIsolatedVertices: on a graph with isolated vertices —
// the callerCount regression shape — the bundles must charge exactly the
// reference's per-round messages (isolated vertices place no call)
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

// agentProtos are the two agent protocols with options o against their
// plain references: visit-exchange (vertices and agents hold the rumor)
// and meet-exchange (agents alone do).
func agentProtos(g *graph.Graph, s graph.Vertex, o AgentOptions) []laneProto {
	return []laneProto{
		{
			name:    "visit-exchange",
			serial:  func(rng *xrand.RNG) (Process, error) { return plainVisitExchange(g, s, rng, o) },
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) { return NewBatchedVisitExchange(g, s, rngs, o) },
		},
		{
			name:    "meet-exchange",
			serial:  func(rng *xrand.RNG) (Process, error) { return plainMeetExchange(g, s, rng, o) },
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) { return NewBatchedMeetExchange(g, s, rngs, o) },
		},
	}
}

// TestLaneEquivalenceVisitExchange: both agent protocols' bundles equal
// their plain references per trial — visit-exchange's per-agent deposits
// and pickups, meet-exchange's per-agent meetings and source rule — and
// every run completes. The star spends most of a visit-exchange run with
// every agent informed (collectDeposits' position scan), the double star
// mixes lane progress across its bridge wait, and the hypercube is
// uniform; lazy walks, more agents than vertices, and five agents that
// reach the all-informed regime late per lane vary the split between
// collectDeposits' two arms, and how long a meet-exchange lane waits on
// its source.
func TestLaneEquivalenceVisitExchange(t *testing.T) {
	graphs := []*graph.Graph{graph.Star(96), graph.DoubleStar(48), graph.Hypercube(6)}
	opts := []AgentOptions{{}, {Lazy: LazyOn}, {Alpha: 2}, {Count: 5}}
	const seed = 99
	for _, g := range graphs {
		for oi, o := range opts {
			for _, pc := range agentProtos(g, 0, o) {
				pc.name = fmt.Sprintf("%s opts[%d]", pc.name, oi)
				for _, k := range []int{1, 2, 7} {
					compareLanes(t, g, pc, k, 0, seed)
				}
				res, err := RunMany(g, pc.serial, 7, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				for tr, r := range res {
					if !r.Completed {
						t.Errorf("%s on %s trial %d: run did not complete", pc.name, g.Name(), tr)
					}
				}
			}
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
		t.Error("adaptive-K lane results diverge from the reference")
	}
	if k := AdaptiveBatchK(g, trials); k < 1 || k > batchK {
		t.Errorf("AdaptiveBatchK = %d, want in [1, %d]", k, batchK)
	}
	if k := AdaptiveBatchK(g, 1); k != 1 {
		t.Errorf("AdaptiveBatchK(1 trial) = %d, want 1", k)
	}
}

// churnProtos are the agent protocols with churn against their plain
// references.
func churnProtos(g *graph.Graph, s graph.Vertex, churn float64) []laneProto {
	o := AgentOptions{ChurnRate: churn}
	protos := agentProtos(g, s, o)
	for i := range protos {
		protos[i].name += "-churn"
	}
	return append(protos, laneProto{
		name:    "hybrid-churn",
		serial:  func(rng *xrand.RNG) (Process, error) { return plainHybrid(g, s, rng, o) },
		batched: func(rngs []*xrand.RNG) (LaneProcess, error) { return NewBatchedHybrid(g, s, rngs, o) },
	})
}

// TestLaneEquivalenceChurn: with churn, K = 2 and K = 7 bundles of every
// agent protocol equal its plain reference per trial at GOMAXPROCS 1 and 8
// (see compareLanes). Meet-exchange may lose the rumor to churn,
// so runs are cut at 600 rounds and truncated lanes are compared too.
func TestLaneEquivalenceChurn(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Star(301),      // degree mix: respawns land on the hub half the time
		graph.DoubleStar(64), // bridge wait
		graph.Hypercube(7),
	}
	const seed, maxRounds = 404, 600
	for _, g := range graphs {
		for _, churn := range []float64{0.01, 0.2} {
			for _, pc := range churnProtos(g, 0, churn) {
				for _, k := range []int{2, 7} {
					compareLanes(t, g, pc, k, maxRounds, seed)
				}
			}
		}
	}
}

// TestHybridBoundaryEquivalence: the boundary-active exchange phase of
// push-pull and the hybrid must be bit-identical to the plain every-caller
// round — a non-boundary vertex's exchange provably transfers nothing, and
// counter-based streams make skipping its draw invisible to every other
// vertex. The double star's bridge wait and the isolated-vertex ring force
// boundary entry, and each protocol must enter it somewhere, or the test
// proves nothing.
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
	type proto struct {
		name  string
		view  func(g *graph.Graph, rng *xrand.RNG) (Process, error)
		plain func(g *graph.Graph, rng *xrand.RNG) (Process, error)
	}
	protos := []proto{
		{"push-pull",
			func(g *graph.Graph, rng *xrand.RNG) (Process, error) {
				return NewPushPull(g, 0, rng, PushPullOptions{})
			},
			func(g *graph.Graph, rng *xrand.RNG) (Process, error) { return plainPushPull(g, 0, rng, 0), nil }},
		{"hybrid",
			func(g *graph.Graph, rng *xrand.RNG) (Process, error) { return NewHybrid(g, 0, rng, AgentOptions{}) },
			func(g *graph.Graph, rng *xrand.RNG) (Process, error) { return plainHybrid(g, 0, rng, AgentOptions{}) }},
	}
	for _, pc := range protos {
		entered := 0
		for _, procs := range []int{1, 8} {
			for _, c := range cases {
				run := func(build func(*graph.Graph, *xrand.RNG) (Process, error)) (res Result, p Process) {
					atGOMAXPROCS(t, procs, func() error {
						var err error
						if p, err = build(c.g, xrand.New(77)); err != nil {
							t.Fatal(err)
						}
						res = Run(c.g, p, c.maxRounds)
						return nil
					})
					return res, p
				}
				got, view := run(pc.view)
				want, _ := run(pc.plain)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s procs=%d %s: view and plain results differ:\nview  %+v\nplain %+v",
						pc.name, procs, c.g.Name(), got, want)
				}
				if _, _, _, boundary := sideHooks(view.bundle()); boundary(0) {
					entered++
				}
			}
		}
		if entered == 0 {
			t.Errorf("%s: no run entered boundary mode", pc.name)
		}
	}
}

// driveLanes runs `trials` trials in bundles of k, one bundle after the
// other on the caller, and keeps no bundle: RunManyLanes minus its pool.
func driveLanes(t *testing.T, g *graph.Graph, factory LaneFactory, trials, k, maxRounds int, seed uint64) []Result {
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
		driveBatch(g, bp, maxRounds, out[t0:t1], nil, t0)
	}
	return out
}

// benchProtos are the five fused bundles as the experiment layer builds
// them, in the order push, push-pull, visit-exchange, meet-exchange, hybrid.
func benchProtos(g *graph.Graph) []laneProto {
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

// The benchmarks below are meant for -cpu 1,2 and therefore loop on b.N:
// under go 1.24 a b.Loop benchmark measures inside the harness's trial
// run, before the first -cpu value is applied.

// BenchmarkStarPushBoundary is one push trial on star:4096: ~36k rounds,
// all but a handful in the boundary phase, stepped on one goroutine.
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
// hypercube for the rest). At -cpu 2 the second processor runs the second
// bundle.
func BenchmarkRunManyLanes(b *testing.B) {
	star, cube := graph.Star(4096), graph.Hypercube(12)
	names := []string{"push", "push-pull", "visitx", "meetx", "hybrid"}
	for i, name := range names {
		g := cube
		if i == 0 {
			g = star
		}
		pc := benchProtos(g)[i]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunManyLanes(g, pc.batched, 16, 0, 1, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
