package core

import (
	"strings"
	"testing"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func TestMultiRumorValidation(t *testing.T) {
	g := graph.Complete(8)
	rng := xrand.New(1)
	if _, err := NewMultiRumorVisitExchange(g, nil, rng, AgentOptions{}); err == nil {
		t.Error("zero rumors accepted")
	}
	if _, err := NewMultiRumorVisitExchange(g, make([]Rumor, 65), rng, AgentOptions{}); err == nil {
		t.Error("65 rumors accepted")
	}
	if _, err := NewMultiRumorVisitExchange(g, []Rumor{{Source: 99}}, rng, AgentOptions{}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := NewMultiRumorVisitExchange(g, []Rumor{{Source: 0, Round: -1}}, rng, AgentOptions{}); err == nil {
		t.Error("negative injection round accepted")
	}
	// A path on 0..3 beside isolated vertex 4: every other protocol refuses
	// to start there, and a rumor injected there could never spread.
	b := graph.NewBuilder(5, "path+isolated")
	for v := range 3 {
		if err := b.AddEdge(graph.Vertex(v), graph.Vertex(v+1)); err != nil {
			t.Fatal(err)
		}
	}
	pathIso, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVisitExchange(pathIso, 4, rng, AgentOptions{}); err == nil {
		t.Fatal("visit-exchange accepted an isolated source")
	}
	_, err = NewMultiRumorVisitExchange(pathIso, []Rumor{{Source: 0}, {Source: 4, Round: 3}}, rng, AgentOptions{})
	if err == nil || !strings.Contains(err.Error(), "rumor 1") || !strings.Contains(err.Error(), "isolated") {
		t.Errorf("isolated source of rumor 1: err = %v, want it named and refused", err)
	}
}

func TestMultiRumorSingleMatchesVisitExchangeSemantics(t *testing.T) {
	// One rumor injected at round 0 behaves like plain visit-exchange: same
	// deterministic setup as TestVisitExchangeAgentInformedByVertex.
	g := graph.Star(6)
	m, err := NewMultiRumorVisitExchange(g, []Rumor{{Source: 0}}, xrand.New(5), AgentOptions{
		Placement: agents.PlaceFixed,
		Count:     1,
		Fixed:     []graph.Vertex{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.VertexCount(0) != 1 {
		t.Fatalf("round 0 vertex count = %d", m.VertexCount(0))
	}
	m.Step() // agent moves onto informed center, picks the rumor up
	if m.VertexCount(0) != 1 {
		t.Fatalf("agent informed its own vertex in the same round: count = %d", m.VertexCount(0))
	}
	m.Step() // agent deposits the rumor on some leaf
	if m.VertexCount(0) != 2 {
		t.Fatalf("after round 2 vertex count = %d, want 2", m.VertexCount(0))
	}
}

func TestMultiRumorAllComplete(t *testing.T) {
	g := graph.Hypercube(6)
	rumors := []Rumor{
		{Source: 0, Round: 0},
		{Source: 5, Round: 0},
		{Source: 9, Round: 10},
		{Source: 33, Round: 20},
	}
	res, err := RunMultiRumor(g, rumors, xrand.New(7), AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("multi-rumor run incomplete after %d rounds", res.Rounds)
	}
	for r, br := range res.BroadcastRounds {
		if br <= 0 {
			t.Errorf("rumor %d broadcast rounds = %d", r, br)
		}
	}
}

// TestMultiRumorSharedBandwidth: messages are |A| per round regardless of
// the number of rumors in flight — the paper's amortization argument.
func TestMultiRumorSharedBandwidth(t *testing.T) {
	g := graph.Hypercube(6)
	one, err := RunMultiRumor(g, []Rumor{{Source: 0}}, xrand.New(3), AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	many := make([]Rumor, 16)
	for i := range many {
		many[i] = Rumor{Source: graph.Vertex(i * 4)}
	}
	multi, err := RunMultiRumor(g, many, xrand.New(3), AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	perRoundOne := float64(one.Messages) / float64(one.Rounds)
	perRoundMulti := float64(multi.Messages) / float64(multi.Rounds)
	if perRoundOne != perRoundMulti {
		t.Errorf("per-round messages differ: %f vs %f (should be |A| regardless of rumors)",
			perRoundOne, perRoundMulti)
	}
}

// TestMultiRumorNoInterference: per-rumor broadcast times with 16 parallel
// rumors stay close to the single-rumor time (rumors do not slow each other
// down — they ride the same walks).
func TestMultiRumorNoInterference(t *testing.T) {
	g := graph.Hypercube(7)
	const trials = 5
	singleSum, multiSum, multiCnt := 0.0, 0.0, 0
	for seed := uint64(0); seed < trials; seed++ {
		one, err := RunMultiRumor(g, []Rumor{{Source: 0}}, xrand.New(seed), AgentOptions{}, 0)
		if err != nil || !one.Completed {
			t.Fatal("single incomplete")
		}
		singleSum += float64(one.BroadcastRounds[0])

		many := make([]Rumor, 16)
		for i := range many {
			many[i] = Rumor{Source: graph.Vertex(i * 8), Round: i}
		}
		multi, err := RunMultiRumor(g, many, xrand.New(seed), AgentOptions{}, 0)
		if err != nil || !multi.Completed {
			t.Fatal("multi incomplete")
		}
		for _, br := range multi.BroadcastRounds {
			multiSum += float64(br)
			multiCnt++
		}
	}
	singleMean := singleSum / trials
	multiMean := multiSum / float64(multiCnt)
	if multiMean > 1.5*singleMean {
		t.Errorf("parallel rumors slowed down: single %.1f vs multi %.1f rounds", singleMean, multiMean)
	}
}

func TestMultiRumorDeterministic(t *testing.T) {
	g := graph.Complete(32)
	rumors := []Rumor{{Source: 0}, {Source: 7, Round: 3}}
	a, err := RunMultiRumor(g, rumors, xrand.New(11), AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiRumor(g, rumors, xrand.New(11), AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.BroadcastRounds {
		if a.BroadcastRounds[r] != b.BroadcastRounds[r] {
			t.Fatal("nondeterministic multi-rumor run")
		}
	}
}

func TestMultiRumorLateInjectionTiming(t *testing.T) {
	// A rumor injected at round 50 on K_n cannot have a broadcast time
	// counted from round 0: BroadcastRounds is measured from injection.
	g := graph.Complete(64)
	res, err := RunMultiRumor(g, []Rumor{{Source: 0, Round: 50}}, xrand.New(5), AgentOptions{}, 0)
	if err != nil || !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Rounds <= 50 {
		t.Errorf("total rounds %d should exceed the injection round", res.Rounds)
	}
	br := res.BroadcastRounds[0]
	if br <= 0 || br > res.Rounds-50+1 {
		t.Errorf("broadcast rounds %d not measured from injection (total %d)", br, res.Rounds)
	}
}

// TestMultiRumorSingleEquivalentToVisitExchange: with one rumor, the
// multi-rumor engine must reproduce VisitExchange *exactly* — same seed,
// same walks, same per-round counts, same broadcast time. This pins the
// two implementations to the same Section 3 semantics.
func TestMultiRumorSingleEquivalentToVisitExchange(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := graph.Hypercube(6)
		src := graph.Vertex(17)

		vx, err := NewVisitExchange(g, src, xrand.New(seed), AgentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mr, err := NewMultiRumorVisitExchange(g, []Rumor{{Source: src}}, xrand.New(seed), AgentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; ; round++ {
			if vx.InformedCount() != mr.VertexCount(0) {
				t.Fatalf("seed %d round %d: visitx %d vertices, multirumor %d",
					seed, round, vx.InformedCount(), mr.VertexCount(0))
			}
			if vx.Done() != mr.Done() {
				t.Fatalf("seed %d round %d: done flags disagree", seed, round)
			}
			if vx.Done() {
				break
			}
			vx.Step()
			mr.Step()
		}
	}
}
