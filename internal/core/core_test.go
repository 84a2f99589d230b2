package core

import (
	"testing"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func TestConstructorValidation(t *testing.T) {
	g := graph.Cycle(5)
	rng := xrand.New(1)
	if _, err := NewPush(g, -1, rng, PushOptions{}); err == nil {
		t.Error("push: negative source accepted")
	}
	if _, err := NewPush(g, 5, rng, PushOptions{}); err == nil {
		t.Error("push: out-of-range source accepted")
	}
	if _, err := NewPush(g, 0, rng, PushOptions{FailureProb: 1}); err == nil {
		t.Error("push: FailureProb=1 accepted")
	}
	if _, err := NewPushPull(g, 0, rng, PushPullOptions{FailureProb: -0.1}); err == nil {
		t.Error("push-pull: negative FailureProb accepted")
	}
	if _, err := NewVisitExchange(g, 9, rng, AgentOptions{}); err == nil {
		t.Error("visitx: bad source accepted")
	}
	if _, err := NewMeetExchange(g, 0, rng, AgentOptions{ChurnRate: 2}); err == nil {
		t.Error("meetx: bad churn accepted")
	}
	if _, err := NewHybrid(g, 77, rng, AgentOptions{}); err == nil {
		t.Error("hybrid: bad source accepted")
	}
}

// agentTrial returns the process behind a visit- or meet-exchange trial.
func agentTrial(p Process) *trial { return p.(*trial) }

// sourceHolds reports whether a meet-exchange trial's source still holds
// the rumor: no agent is informed and the source is in the vertex set.
func sourceHolds(p Process) bool {
	x := agentTrial(p)
	return x.countA == 0 && x.informed.Test(int(x.src))
}

func TestAgentCountHelper(t *testing.T) {
	cases := []struct {
		n     int
		alpha float64
		want  int
	}{
		{100, 1, 100},
		{100, 0.5, 50},
		{100, 2, 200},
		{3, 0.1, 1}, // floors at 1
		{7, 1.5, 11},
	}
	for _, c := range cases {
		if got := AgentCount(c.n, c.alpha); got != c.want {
			t.Errorf("AgentCount(%d, %g) = %d, want %d", c.n, c.alpha, got, c.want)
		}
	}
}

// --- exact round-semantics tests -----------------------------------------

// TestPushSnapshotSemantics: on the path 0-1-2 with source 0, vertex 1 is
// informed in round 1 but must not push in that same round, so vertex 2
// cannot be informed before round 2.
func TestPushSnapshotSemantics(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := graph.Path(3)
		p, err := NewPush(g, 0, xrand.New(seed), PushOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p.Step()
		if got := p.InformedCount(); got != 2 {
			t.Fatalf("seed %d: after round 1, informed = %d, want exactly 2", seed, got)
		}
		if p.Done() {
			t.Fatalf("seed %d: done after one round on P3", seed)
		}
		res := Run(g, p, 0)
		if !res.Completed || res.Rounds < 2 {
			t.Fatalf("seed %d: P3 push rounds = %d (completed=%v), want >= 2", seed, res.Rounds, res.Completed)
		}
	}
}

// TestPushPullSnapshotSemantics: same structure for push-pull. On the path
// 0-1-2 with source 0, vertex 2 can learn the rumor no earlier than round 2
// because vertex 1 is informed only during round 1.
func TestPushPullSnapshotSemantics(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := graph.Path(3)
		p, err := NewPushPull(g, 0, xrand.New(seed), PushPullOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p.Step()
		if got := p.InformedCount(); got != 2 {
			t.Fatalf("seed %d: after round 1, informed = %d, want exactly 2", seed, got)
		}
	}
}

// TestPushPullStarAtMostTwoRounds is Lemma 2(b): push-pull completes the
// star in at most 2 rounds from any source, deterministically (every leaf
// has only the center to call).
func TestPushPullStarAtMostTwoRounds(t *testing.T) {
	g := graph.Star(64)
	for _, src := range []graph.Vertex{0, 1, 33} {
		for seed := uint64(0); seed < 10; seed++ {
			p, err := NewPushPull(g, src, xrand.New(seed), PushPullOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res := Run(g, p, 10)
			if !res.Completed || res.Rounds > 2 {
				t.Fatalf("src %d seed %d: push-pull star rounds = %d (completed=%v), want <= 2",
					src, seed, res.Rounds, res.Completed)
			}
		}
	}
}

// TestPushStarFromCenterInformsAtMostOnePerRound: the star center can
// inform at most one new leaf per round, so push needs >= leaves rounds.
func TestPushStarFromCenterInformsAtMostOnePerRound(t *testing.T) {
	g := graph.Star(32)
	p, err := NewPush(g, 0, xrand.New(7), PushOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, p, 0)
	if !res.Completed {
		t.Fatal("push did not complete on star")
	}
	if res.Rounds < 32 {
		t.Errorf("push star rounds = %d, must be >= 32 (one leaf per round)", res.Rounds)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i]-res.History[i-1] > 1 {
			t.Fatalf("round %d informed %d new vertices on a star from center", i, res.History[i]-res.History[i-1])
		}
	}
}

// TestVisitExchangeRoundZero: agents standing on the source are informed at
// round zero; others are not.
func TestVisitExchangeRoundZero(t *testing.T) {
	g := graph.Star(8)
	v, err := NewVisitExchange(g, 0, xrand.New(3), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     3,
		Fixed:     []graph.Vertex{0, 0, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := agentTrial(v).countA; got != 2 {
		t.Errorf("round-zero informed agents = %d, want 2", got)
	}
	if v.InformedCount() != 1 {
		t.Errorf("round-zero informed vertices = %d, want 1", v.InformedCount())
	}
}

// TestVisitExchangeAgentInformedByVertex: an uninformed agent landing on a
// vertex informed in a previous round becomes informed; next round it can
// inform a new vertex.
func TestVisitExchangeAgentInformedByVertex(t *testing.T) {
	g := graph.Star(6)
	// Source is the center; the single agent starts on a leaf. Round 1: the
	// agent (only neighbor: center) moves onto the informed center and
	// becomes informed. Round 2: it moves to some leaf and informs it.
	v, err := NewVisitExchange(g, 0, xrand.New(5), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     1,
		Fixed:     []graph.Vertex{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agentTrial(v).countA != 0 {
		t.Fatal("agent informed at round zero while off-source")
	}
	v.Step()
	if agentTrial(v).countA != 1 {
		t.Fatal("agent not informed after stepping onto informed center")
	}
	if v.InformedCount() != 1 {
		t.Fatalf("vertex count changed: %d (agent was informed only this round)", v.InformedCount())
	}
	v.Step()
	if v.InformedCount() != 2 {
		t.Fatalf("after round 2, informed vertices = %d, want 2", v.InformedCount())
	}
}

// TestVisitExchangeCurrentRoundVertexInformsAgent: an agent arriving at a
// vertex informed *this* round (by another informed agent) becomes informed
// too — the "previous round or the current round" clause of Section 3.
func TestVisitExchangeCurrentRoundVertexInformsAgent(t *testing.T) {
	g := graph.Star(6)
	// Source is leaf 1. Agent 0 starts on leaf 1 (informed at round zero);
	// agent 1 starts on leaf 2 (uninformed). In round 1 both move to the
	// center (their only neighbor): agent 0 informs the center, and agent 1,
	// standing on the center informed in the current round, is informed.
	v, err := NewVisitExchange(g, 1, xrand.New(5), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     2,
		Fixed:     []graph.Vertex{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Step()
	if got := agentTrial(v).countA; got != 2 {
		t.Fatalf("after round 1, informed agents = %d, want 2 (current-round rule)", got)
	}
	if v.InformedCount() != 2 { // leaf 1 + center
		t.Fatalf("after round 1, informed vertices = %d, want 2", v.InformedCount())
	}
}

// TestVisitExchangeVertexNeedsPreviouslyInformedAgent: an agent informed in
// the current round does not inform the vertex it sits on this round.
func TestVisitExchangeVertexNeedsPreviouslyInformedAgent(t *testing.T) {
	g := graph.Path(3) // 0 - 1 - 2
	// Source 0; the agent starts on vertex 1 uninformed and is forced (by
	// graph structure? no — vertex 1 has two neighbors) — use the star
	// again: source center, agent on a leaf. After round 1 the agent stands
	// on the center (informed round 0) and is informed, but the leaf count
	// must still be 1: its current vertex was already informed, and it
	// cannot have informed anything en route.
	_ = g
	star := graph.Star(4)
	v, err := NewVisitExchange(star, 0, xrand.New(11), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     1,
		Fixed:     []graph.Vertex{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Step()
	if v.InformedCount() != 1 {
		t.Fatalf("informed vertices = %d after round 1, want 1", v.InformedCount())
	}
}

// TestMeetExchangeRoundZeroAndSourceRule: agents on the source are informed
// at round zero and the source then deactivates.
func TestMeetExchangeRoundZeroAndSourceRule(t *testing.T) {
	g := graph.Star(8)
	m, err := NewMeetExchange(g, 0, xrand.New(3), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     2,
		Fixed:     []graph.Vertex{0, 4},
		Lazy:      LazyOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.InformedCount() != 1 {
		t.Fatalf("round-zero informed agents = %d, want 1", m.InformedCount())
	}
	if sourceHolds(m) {
		t.Fatal("source still active though an agent started on it")
	}
}

// TestMeetExchangeFirstVisitInforms: with no agent on the source, the first
// visitor picks up the rumor and the source then deactivates.
func TestMeetExchangeFirstVisitInforms(t *testing.T) {
	g := graph.Path(2)
	m, err := NewMeetExchange(g, 0, xrand.New(9), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     1,
		Fixed:     []graph.Vertex{1},
		Lazy:      LazyOff, // deterministic: the agent must hop to 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sourceHolds(m) || m.InformedCount() != 0 {
		t.Fatal("bad round-zero state")
	}
	m.Step()
	if m.InformedCount() != 1 || sourceHolds(m) {
		t.Fatalf("first visit did not inform: count=%d active=%v", m.InformedCount(), sourceHolds(m))
	}
	if !m.Done() {
		t.Fatal("single-agent meetx not done once the agent is informed")
	}
}

// TestMeetExchangeParityTrap: on the (bipartite) star with non-lazy walks,
// agents in opposite parity classes never meet, so the run hits MaxRounds.
// This is exactly why the paper prescribes lazy walks on bipartite graphs.
func TestMeetExchangeParityTrap(t *testing.T) {
	g := graph.Star(6)
	m, err := NewMeetExchange(g, 0, xrand.New(13), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     2,
		Fixed:     []graph.Vertex{0, 3}, // opposite parity classes
		Lazy:      LazyOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, m, 400)
	if res.Completed {
		t.Fatal("opposite-parity agents met on a bipartite graph with simple walks")
	}
	if res.Rounds != 400 {
		t.Fatalf("Rounds = %d, want the MaxRounds cutoff 400", res.Rounds)
	}
}

// TestMeetExchangeLazyAutoResolvesParity: same setup with LazyAuto picks
// lazy walks (star is bipartite) and completes.
func TestMeetExchangeLazyAutoResolvesParity(t *testing.T) {
	g := graph.Star(6)
	m, err := NewMeetExchange(g, 0, xrand.New(13), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     2,
		Fixed:     []graph.Vertex{0, 3},
		Lazy:      LazyAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, m, 0)
	if !res.Completed {
		t.Fatal("LazyAuto meet-exchange failed to complete on the star")
	}
}

// --- completion across families × protocols ------------------------------

type protoCase struct {
	name    string
	factory func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error)
}

func allProtocols() []protoCase {
	return []protoCase{
		{"push", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPush(g, s, rng, PushOptions{})
		}},
		{"push-pull", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewPushPull(g, s, rng, PushPullOptions{})
		}},
		{"visitx", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewVisitExchange(g, s, rng, AgentOptions{})
		}},
		{"meetx", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewMeetExchange(g, s, rng, AgentOptions{})
		}},
		{"hybrid", func(g *graph.Graph, s graph.Vertex, rng *xrand.RNG) (Process, error) {
			return NewHybrid(g, s, rng, AgentOptions{})
		}},
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegularConnected(48, 6, 4242)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"star":        graph.Star(20),
		"doublestar":  graph.DoubleStar(10),
		"heavytree":   graph.HeavyBinaryTree(4),
		"siamesetree": graph.SiameseHeavyTree(4),
		"cyclestars":  graph.CycleStarsCliques(3),
		"complete":    graph.Complete(16),
		"cycle":       graph.Cycle(15),
		"hypercube":   graph.Hypercube(5),
		"torus":       graph.Torus2D(4, 4),
		"ringcliques": graph.RingOfCliques(3, 5),
		"cliquepath":  graph.CliquePath(3, 5),
		"randreg":     rr,
		"path":        graph.Path(12),
		"bintree":     graph.BinaryTree(4),
	}
}

// TestAllProtocolsCompleteOnAllFamilies is the workhorse integration test:
// every protocol must disseminate fully on every connected family, the
// informed history must be monotone, and agent invariants must hold.
func TestAllProtocolsCompleteOnAllFamilies(t *testing.T) {
	graphs := testGraphs(t)
	for gname, g := range graphs {
		for _, pc := range allProtocols() {
			t.Run(gname+"/"+pc.name, func(t *testing.T) {
				rng := xrand.New(xrand.Derive(777, len(gname)))
				p, err := pc.factory(g, 0, rng)
				if err != nil {
					t.Fatal(err)
				}
				res := Run(g, p, 0)
				if !res.Completed {
					t.Fatalf("did not complete in %d rounds", res.Rounds)
				}
				if res.Rounds <= 0 {
					t.Fatalf("Rounds = %d", res.Rounds)
				}
				want := g.N()
				if pc.name == "meetx" {
					want = agentTrial(p).walks.N()
				}
				if got := p.InformedCount(); got != want {
					t.Fatalf("final informed = %d, want %d", got, want)
				}
				for i := 1; i < len(res.History); i++ {
					if res.History[i] < res.History[i-1] {
						t.Fatalf("history not monotone at %d: %d -> %d", i, res.History[i-1], res.History[i])
					}
				}
				if res.Messages <= 0 {
					t.Fatal("no messages recorded")
				}
				if res.Protocol == "" || res.Graph == "" {
					t.Fatal("result missing labels")
				}
			})
		}
	}
}

// TestVisitExchangeAllAgentsAtVertexCompletion: when the last vertex is
// informed, every agent is standing on an informed vertex, so all agents
// are informed in the same round (the parenthetical of Section 3's T_visitx
// definition). AllAgentsRound can never exceed Rounds.
func TestVisitExchangeAllAgentsAtVertexCompletion(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := graph.Hypercube(5)
		v, err := NewVisitExchange(g, 0, xrand.New(seed), AgentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res := Run(g, v, 0)
		if !res.Completed {
			t.Fatal("incomplete")
		}
		if res.AllAgentsRound < 0 || res.AllAgentsRound > res.Rounds {
			t.Fatalf("seed %d: AllAgentsRound = %d, Rounds = %d", seed, res.AllAgentsRound, res.Rounds)
		}
		if !v.allAgentsInformed() {
			t.Fatalf("seed %d: agents uninformed at vertex completion", seed)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.Hypercube(6)
	for _, pc := range allProtocols() {
		run := func() Result {
			p, err := pc.factory(g, 0, xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			return Run(g, p, 0)
		}
		a, b := run(), run()
		if a.Rounds != b.Rounds || a.Messages != b.Messages {
			t.Errorf("%s: same seed, different outcome: %d/%d vs %d/%d",
				pc.name, a.Rounds, a.Messages, b.Rounds, b.Messages)
		}
	}
}

func TestRunManyBasics(t *testing.T) {
	g := graph.Complete(32)
	results, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, 0, rng, PushOptions{})
	}, 8, 0, 123)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if !r.Completed {
			t.Errorf("trial %d incomplete", i)
		}
	}
	// Deterministic per (seed, trial index).
	again, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, 0, rng, PushOptions{})
	}, 8, 0, 123)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Rounds != again[i].Rounds {
			t.Fatalf("trial %d not deterministic: %d vs %d", i, results[i].Rounds, again[i].Rounds)
		}
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	g := graph.Complete(8)
	_, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, 99, rng, PushOptions{})
	}, 4, 0, 1)
	if err == nil {
		t.Fatal("factory error swallowed")
	}
	if _, err := RunMany(g, nil, 0, 0, 1); err == nil {
		t.Fatal("trials=0 accepted")
	}
}

func TestPushFailureProbStillCompletes(t *testing.T) {
	g := graph.Complete(16)
	p, err := NewPush(g, 0, xrand.New(21), PushOptions{FailureProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, p, 0)
	if !res.Completed {
		t.Fatal("push with failures did not complete on K16")
	}
}

// TestPushFailureSlowsDown: with 80% losses, broadcast should take longer
// on average than with reliable links (coarse check over a few seeds).
func TestPushFailureSlowsDown(t *testing.T) {
	g := graph.Complete(64)
	total := func(fp float64) int {
		sum := 0
		for seed := uint64(0); seed < 5; seed++ {
			p, err := NewPush(g, 0, xrand.New(seed), PushOptions{FailureProb: fp})
			if err != nil {
				t.Fatal(err)
			}
			sum += Run(g, p, 0).Rounds
		}
		return sum
	}
	if reliable, lossy := total(0), total(0.8); lossy <= reliable {
		t.Errorf("lossy push (%d rounds) not slower than reliable (%d)", lossy, reliable)
	}
}

func TestVisitExchangeChurnCompletes(t *testing.T) {
	g := graph.Complete(24)
	v, err := NewVisitExchange(g, 0, xrand.New(31), AgentOptions{ChurnRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, v, 0)
	if !res.Completed {
		t.Fatal("visit-exchange with churn did not complete (vertices retain the rumor)")
	}
}

// TestMeetExchangeChurnCanLoseRumor: with agent-only storage and heavy
// churn, the rumor can die out; the run must terminate at MaxRounds without
// panicking, demonstrating the robustness concern of Section 9.
func TestMeetExchangeChurnRuns(t *testing.T) {
	g := graph.Complete(24)
	m, err := NewMeetExchange(g, 0, xrand.New(31), AgentOptions{ChurnRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, m, 300)
	if res.Rounds <= 0 || res.Rounds > 300 {
		t.Fatalf("bad rounds %d", res.Rounds)
	}
}

func TestVisitExchangeObserverSeesAgentSteps(t *testing.T) {
	g := graph.Hypercube(4)
	var calls int64
	v, err := NewVisitExchange(g, 0, xrand.New(43), AgentOptions{
		Count: 10,
		Observer: func(round int, from, to graph.Vertex) {
			calls++
			if from != to && !g.HasEdge(from, to) {
				t.Fatalf("agent teleported %d -> %d", from, to)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, v, 0)
	if calls != res.Messages {
		t.Errorf("observer calls %d != messages %d", calls, res.Messages)
	}
	if res.Messages != int64(res.Rounds)*10 {
		t.Errorf("messages %d != rounds %d * 10 agents", res.Messages, res.Rounds)
	}
}

// TestObserverSkipsChurnRespawns: an observer receives agent traversals,
// and an agent replaced by churn traversed nothing — it reappears at a
// stationary sample, usually not a neighbor. So every observed move with
// from != to must be an edge, for every agent protocol with heavy churn on
// a cycle, where almost no respawn lands next to where the agent was.
func TestObserverSkipsChurnRespawns(t *testing.T) {
	g := graph.Cycle(64)
	for name, build := range map[string]func(rng *xrand.RNG, o AgentOptions) (Process, error){
		"visitx": func(rng *xrand.RNG, o AgentOptions) (Process, error) { return NewVisitExchange(g, 0, rng, o) },
		"meetx":  func(rng *xrand.RNG, o AgentOptions) (Process, error) { return NewMeetExchange(g, 0, rng, o) },
		"hybrid": func(rng *xrand.RNG, o AgentOptions) (Process, error) { return NewHybrid(g, 0, rng, o) },
	} {
		moves, bad := 0, 0
		p, err := build(xrand.New(3), AgentOptions{ChurnRate: 0.2, Observer: func(_ int, from, to graph.Vertex) {
			moves++
			if from != to && !g.HasEdge(from, to) {
				bad++
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		Run(g, p, 200)
		if moves == 0 || bad > 0 {
			t.Errorf("%s: %d of %d observed moves are not edges", name, bad, moves)
		}
	}
}

func TestHistoryStartsAtRoundZero(t *testing.T) {
	g := graph.Complete(8)
	p, err := NewPush(g, 0, xrand.New(1), PushOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, p, 0)
	if len(res.History) != res.Rounds+1 {
		t.Fatalf("history length %d, want rounds+1 = %d", len(res.History), res.Rounds+1)
	}
	if res.History[0] != 1 {
		t.Errorf("history[0] = %d, want 1 (source only)", res.History[0])
	}
	if res.History[len(res.History)-1] != g.N() {
		t.Errorf("final history = %d, want %d", res.History[len(res.History)-1], g.N())
	}
}

// TestPushInformedAtMostDoubles: |informed| can at most double each round
// under push — each informed vertex informs at most one other.
func TestPushInformedAtMostDoubles(t *testing.T) {
	g := graph.Complete(128)
	p, err := NewPush(g, 0, xrand.New(51), PushOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, p, 0)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > 2*res.History[i-1] {
			t.Fatalf("informed more than doubled at round %d: %d -> %d", i, res.History[i-1], res.History[i])
		}
	}
}

// TestOnePerVertexPlacement exercises the "exactly one agent per vertex"
// variant the paper notes after Lemma 11.
func TestOnePerVertexPlacement(t *testing.T) {
	g := graph.Hypercube(5)
	v, err := NewVisitExchange(g, 0, xrand.New(61), AgentOptions{
		Placement: agents.PlaceOnePerVertex,
		Count:     g.N(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if agentTrial(v).walks.N() != g.N() {
		t.Fatalf("agent count %d != n %d", agentTrial(v).walks.N(), g.N())
	}
	res := Run(g, v, 0)
	if !res.Completed {
		t.Fatal("one-per-vertex visit-exchange incomplete")
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if got := DefaultMaxRounds(graph.Complete(10)); got != 64*64 {
		t.Errorf("small graph default = %d, want %d", got, 64*64)
	}
	if got := DefaultMaxRounds(graph.Complete(100)); got != 100*100 {
		t.Errorf("default = %d, want 10000", got)
	}
}

// --- coarse lemma-level checks (full sweeps live in internal/experiment) --

func meanRounds(t *testing.T, g *graph.Graph, f Factory, trials int) float64 {
	t.Helper()
	results, err := RunMany(g, f, trials, 0, 2468)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("trial incomplete on %s", g.Name())
		}
		sum += float64(r.Rounds)
	}
	return sum / float64(trials)
}

// TestLemma2StarOrdering: on the star, push is far slower than
// visit-exchange and meet-exchange.
func TestLemma2StarOrdering(t *testing.T) {
	g := graph.Star(256)
	src := graph.Vertex(0)
	push := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, src, rng, PushOptions{})
	}, 3)
	visitx := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewVisitExchange(g, src, rng, AgentOptions{})
	}, 3)
	meetx := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewMeetExchange(g, src, rng, AgentOptions{})
	}, 3)
	if push < 5*visitx {
		t.Errorf("push (%.1f) not much slower than visitx (%.1f) on star", push, visitx)
	}
	if push < 5*meetx {
		t.Errorf("push (%.1f) not much slower than meetx (%.1f) on star", push, meetx)
	}
}

// TestLemma3DoubleStarOrdering: on the double star, push-pull is far slower
// than the agent protocols (the bandwidth-fairness separation). The
// bridge-crossing time of push-pull is geometric with mean Θ(n), so use
// enough leaves and trials to keep the margin robust.
func TestLemma3DoubleStarOrdering(t *testing.T) {
	g := graph.DoubleStar(512)
	src, _ := g.Landmark("centerA")
	ppull := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewPushPull(g, src, rng, PushPullOptions{})
	}, 6)
	visitx := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewVisitExchange(g, src, rng, AgentOptions{})
	}, 6)
	if ppull < 3*visitx {
		t.Errorf("push-pull (%.1f) not much slower than visitx (%.1f) on double star", ppull, visitx)
	}
}

// TestLemma4HeavyTreeOrdering: on the heavy binary tree, visit-exchange is
// far slower than push, while meet-exchange from a leaf source stays fast.
func TestLemma4HeavyTreeOrdering(t *testing.T) {
	g := graph.HeavyBinaryTree(8) // n = 255
	leaf, _ := g.Landmark("leaf")
	push := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, leaf, rng, PushOptions{})
	}, 3)
	visitx := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewVisitExchange(g, leaf, rng, AgentOptions{})
	}, 3)
	meetx := meanRounds(t, g, func(rng *xrand.RNG) (Process, error) {
		return NewMeetExchange(g, leaf, rng, AgentOptions{})
	}, 3)
	if visitx < 3*push {
		t.Errorf("visitx (%.1f) not much slower than push (%.1f) on heavy tree", visitx, push)
	}
	if visitx < 2*meetx {
		t.Errorf("visitx (%.1f) not much slower than meetx (%.1f) on heavy tree", visitx, meetx)
	}
}

// TestHybridFastEverywhere: the combined protocol should stay near the
// faster mechanism on both separation families.
func TestHybridFastEverywhere(t *testing.T) {
	star := graph.DoubleStar(128) // push-pull is slow here
	tree := graph.HeavyBinaryTree(8)
	leaf, _ := tree.Landmark("leaf")

	hybridStar := meanRounds(t, star, func(rng *xrand.RNG) (Process, error) {
		return NewHybrid(star, 0, rng, AgentOptions{})
	}, 3)
	hybridTree := meanRounds(t, tree, func(rng *xrand.RNG) (Process, error) {
		return NewHybrid(tree, leaf, rng, AgentOptions{})
	}, 3)
	if hybridStar > 60 {
		t.Errorf("hybrid on double star took %.1f rounds, expected logarithmic", hybridStar)
	}
	if hybridTree > 60 {
		t.Errorf("hybrid on heavy tree took %.1f rounds, expected logarithmic", hybridTree)
	}
}

// TestProcessConformance checks the Process contract for every protocol:
// the constructor consumes one value from the trial RNG per mechanism (the
// hybrid's walk seed, then its exchange seed), Round advances by exactly
// one per Step, InformedCount never decreases, Messages strictly increase,
// and Done eventually holds. Each trial's RNG feeds only its constructor,
// so an extra draw there would move no recorded outcome; the first check
// is what holds the constructors to their documented consumption.
func TestProcessConformance(t *testing.T) {
	g := graph.Hypercube(5)
	for _, pc := range allProtocols() {
		t.Run(pc.name, func(t *testing.T) {
			rng := xrand.New(3)
			p, err := pc.factory(g, 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			draws := 1
			if pc.name == "hybrid" {
				draws = 2
			}
			fresh := xrand.New(3)
			for range draws {
				fresh.Uint64()
			}
			if got, want := rng.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("the constructor did not consume exactly %d value(s) of the trial RNG", draws)
			}
			if p.Name() == "" {
				t.Fatal("empty Name")
			}
			if p.Round() != 0 {
				t.Fatalf("fresh process at round %d", p.Round())
			}
			prevCount := p.InformedCount()
			prevMsgs := p.Messages()
			for i := 1; i <= 2000 && !p.Done(); i++ {
				p.Step()
				if p.Round() != i {
					t.Fatalf("Round = %d after %d steps", p.Round(), i)
				}
				if c := p.InformedCount(); c < prevCount {
					t.Fatalf("InformedCount decreased %d -> %d", prevCount, c)
				} else {
					prevCount = c
				}
				if m := p.Messages(); m <= prevMsgs {
					t.Fatalf("Messages did not increase at round %d", i)
				} else {
					prevMsgs = m
				}
			}
			if !p.Done() {
				t.Fatal("not done after 2000 rounds on hypercube(5)")
			}
		})
	}
}

// TestMeetExchangePairwiseRule pins the "exactly one informed in a previous
// round" meeting semantics: two uninformed agents meeting do not create
// information, and two agents informed the same round don't double count.
func TestMeetExchangePairwiseRule(t *testing.T) {
	// Complete graph K3, source 0, agents pinned at 1 and 2 (neither on the
	// source). Round 0: nobody informed, source active. Whatever moves
	// happen, InformedCount can only become positive via a source visit.
	g := graph.Complete(3)
	m, err := NewMeetExchange(g, 0, xrand.New(5), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     2,
		Fixed:     []graph.Vertex{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.InformedCount() != 0 || !sourceHolds(m) {
		t.Fatal("bad initial state")
	}
	for i := 0; i < 50 && m.InformedCount() == 0; i++ {
		m.Step()
		if m.InformedCount() > 0 && sourceHolds(m) {
			t.Fatal("agents informed while source still active — meeting of uninformed agents created information")
		}
		x := agentTrial(m)
		for i, p := range x.walks.Positions() {
			if x.informedA.Test(i) && p != 0 {
				t.Fatalf("agent %d informed off the source, at %d, before any agent held the rumor", i, p)
			}
		}
	}
	if m.InformedCount() == 0 {
		t.Fatal("no agent ever visited the source on K3 in 50 rounds")
	}
}

// TestHybridObserverSeesAgentTraversals: the hybrid's observer receives its
// agent channel only — one traversal per agent per round — and none of its
// push-pull calls, which Messages does count.
func TestHybridObserverSeesAgentTraversals(t *testing.T) {
	g := graph.Complete(12)
	var calls int64
	h, err := NewHybrid(g, 0, xrand.New(9), AgentOptions{
		Count: 8,
		Observer: func(round int, from, to graph.Vertex) {
			calls++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, h, 0)
	if calls != int64(res.Rounds)*8 {
		t.Errorf("observer calls %d != rounds %d × 8 agents", calls, res.Rounds)
	}
	if want := int64(res.Rounds) * (12 + 8); res.Messages != want {
		t.Errorf("messages %d != rounds %d × (12 calls + 8 agent steps)", res.Messages, res.Rounds)
	}
}
