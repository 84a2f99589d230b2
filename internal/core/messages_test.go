package core

import (
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// ringWithIsolated builds a 4-cycle {0,1,2,3} plus isolated vertices 4 and
// 5. Isolated vertices can never be informed, so these tests drive Step
// directly instead of running to completion.
func ringWithIsolated(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6, "ring+isolated")
	for _, e := range [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPushPullMessagesSkipIsolated: push-pull charges one call per
// non-isolated vertex per round. Isolated vertices have nobody to call
// (neighborSampler.call returns -1), so charging all n would overcount.
func TestPushPullMessagesSkipIsolated(t *testing.T) {
	g := ringWithIsolated(t)
	p, err := NewPushPull(g, 0, xrand.New(5), PushPullOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		p.Step()
	}
	want := int64(rounds * 4) // 4 non-isolated vertices
	if p.Messages() != want {
		t.Errorf("push-pull messages = %d, want %d (n=%d with 2 isolated)", p.Messages(), want, g.N())
	}
}

// TestHybridMessagesSkipIsolated: the hybrid charges one exchange call per
// non-isolated vertex plus one token message per agent step per round.
func TestHybridMessagesSkipIsolated(t *testing.T) {
	g := ringWithIsolated(t)
	h, err := NewHybrid(g, 0, xrand.New(5), AgentOptions{Count: 7})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		h.Step()
	}
	want := int64(rounds * (4 + 7)) // 4 exchange callers + 7 agents
	if h.Messages() != want {
		t.Errorf("hybrid messages = %d, want %d", h.Messages(), want)
	}
}

// TestPushPullMessagesFullGraph: on a graph without isolated vertices the
// accounting is unchanged — one call per vertex per round.
func TestPushPullMessagesFullGraph(t *testing.T) {
	g := graph.Hypercube(5)
	p, err := NewPushPull(g, 0, xrand.New(5), PushPullOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for !p.Done() && rounds < 1000 {
		p.Step()
		rounds++
	}
	want := int64(rounds * g.N())
	if p.Messages() != want {
		t.Errorf("push-pull messages = %d, want %d", p.Messages(), want)
	}
}
