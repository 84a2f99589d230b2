package agents

import (
	"math"
	"testing"
	"testing/quick"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	g := graph.Cycle(5)
	rng := xrand.New(1)
	if _, err := New(g, Config{Count: 0}, rng); err == nil {
		t.Error("Count=0 accepted")
	}
	if _, err := New(g, Config{Count: 3, Placement: PlaceOnePerVertex}, rng); err == nil {
		t.Error("PlaceOnePerVertex with Count != N accepted")
	}
	if _, err := New(g, Config{Count: 2, Placement: PlaceFixed, Fixed: []graph.Vertex{0}}, rng); err == nil {
		t.Error("PlaceFixed with wrong length accepted")
	}
	if _, err := New(g, Config{Count: 1, Placement: PlaceFixed, Fixed: []graph.Vertex{9}}, rng); err == nil {
		t.Error("PlaceFixed out of range accepted")
	}
	if _, err := New(g, Config{Count: 1, ChurnRate: 1.5}, rng); err == nil {
		t.Error("ChurnRate >= 1 accepted")
	}
	if _, err := New(g, Config{Count: 1, ChurnRate: -0.1}, rng); err == nil {
		t.Error("negative ChurnRate accepted")
	}
	if _, err := New(g, Config{Count: 1, Placement: Placement(99)}, rng); err == nil {
		t.Error("unknown placement accepted")
	}
}

func TestPlacementModes(t *testing.T) {
	g := graph.Cycle(6)
	rng := xrand.New(2)

	w, err := New(g, Config{Count: 6, Placement: PlaceOnePerVertex}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range w.Positions() {
		if p != graph.Vertex(i) {
			t.Errorf("one-per-vertex agent %d at %d", i, p)
		}
	}

	fixed := []graph.Vertex{3, 3, 0}
	w, err = New(g, Config{Count: 3, Placement: PlaceFixed, Fixed: fixed}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range fixed {
		if w.Positions()[i] != want {
			t.Errorf("fixed agent %d at %d, want %d", i, w.Positions()[i], want)
		}
	}
}

// TestStationaryPlacementDistribution: on a star, the center has degree n
// and each leaf degree 1, so the center should receive about half the
// agents.
func TestStationaryPlacementDistribution(t *testing.T) {
	g := graph.Star(100)
	rng := xrand.New(3)
	const agents = 20000
	w, err := New(g, Config{Count: agents}, rng)
	if err != nil {
		t.Fatal(err)
	}
	center := 0
	for i := 0; i < agents; i++ {
		if w.Positions()[i] == 0 {
			center++
		}
	}
	frac := float64(center) / agents
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("stationary placement put %.3f of agents at center, want 0.5", frac)
	}
}

func TestStepMovesAlongEdges(t *testing.T) {
	g := graph.Hypercube(4)
	rng := xrand.New(4)
	w, err := New(g, Config{Count: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		w.Step()
		for i := 0; i < w.N(); i++ {
			from, to := w.Prev()[i], w.Positions()[i]
			if !g.HasEdge(from, to) {
				t.Fatalf("agent %d jumped %d -> %d (not an edge)", i, from, to)
			}
		}
	}
	if w.Round() != 20 {
		t.Errorf("Round() = %d, want 20", w.Round())
	}
}

func TestLazyWalksSometimesStay(t *testing.T) {
	g := graph.Cycle(8)
	rng := xrand.New(5)
	w, err := New(g, Config{Count: 400, Lazy: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	stayed := 0
	for i := 0; i < w.N(); i++ {
		if w.Positions()[i] == w.Prev()[i] {
			stayed++
		}
	}
	frac := float64(stayed) / float64(w.N())
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("lazy walks stayed with frequency %.3f, want about 0.5", frac)
	}
}

func TestNonLazyAlwaysMoves(t *testing.T) {
	g := graph.Cycle(8) // no self-loops, so moving means changing vertex
	rng := xrand.New(6)
	w, err := New(g, Config{Count: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		w.Step()
		for i := 0; i < w.N(); i++ {
			if w.Positions()[i] == w.Prev()[i] {
				t.Fatalf("non-lazy agent %d stayed put", i)
			}
		}
	}
}

// TestLaneOverrideRoutesAgents: positions an owner writes into Positions
// between steps are where the next step walks on from (the couplings route
// departures this way).
func TestLaneOverrideRoutesAgents(t *testing.T) {
	g := graph.Path(5)
	w, err := New(g, Config{Count: 2, Placement: PlaceFixed, Fixed: []graph.Vertex{0, 0}}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	w.Step() // both agents must move to vertex 1
	w.Positions()[1] = 4
	w.Step()
	if p := w.Prev()[1]; p != 4 {
		t.Fatalf("overridden agent left from %d, want 4", p)
	}
	if p := w.Positions()[1]; p != 3 {
		t.Fatalf("overridden agent at %d, want 3 (vertex 4's only neighbor)", p)
	}
	if p := w.Prev()[0]; p != 1 {
		t.Fatalf("agent 0 left from %d, want 1", p)
	}
}

func TestNoChurnNoRespawns(t *testing.T) {
	g := graph.Complete(5)
	rng := xrand.New(9)
	w, err := New(g, Config{Count: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Step()
		if len(w.Respawned()) != 0 {
			t.Fatal("respawn without churn")
		}
	}
}

func TestDeterministicWalks(t *testing.T) {
	g := graph.Hypercube(5)
	mk := func() []graph.Vertex {
		w, err := New(g, Config{Count: 64}, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			w.Step()
		}
		return w.Positions()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at agent %d", i)
		}
	}
}

// TestStationaryIsInvariant: after many steps, the empirical distribution
// should still match the stationary distribution (degree-proportional).
// This is the property that makes the paper's "agents start from
// stationarity" assumption self-consistent.
func TestStationaryIsInvariant(t *testing.T) {
	g := graph.Star(50) // heavily non-regular: center prob 1/2
	rng := xrand.New(10)
	const agents = 4000
	w, err := New(g, Config{Count: agents}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Count center occupancy averaged over rounds 10..60 (odd/even parity
	// alternates on bipartite graphs, so average over a window).
	for i := 0; i < 10; i++ {
		w.Step()
	}
	total := 0
	const window = 50
	for r := 0; r < window; r++ {
		w.Step()
		for i := 0; i < agents; i++ {
			if w.Positions()[i] == 0 {
				total++
			}
		}
	}
	frac := float64(total) / float64(agents*window)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("center occupancy %.3f after mixing, want about 0.5", frac)
	}
}

func TestOccupancyBasics(t *testing.T) {
	o := NewOccupancy(10)
	if o.Count(3) != 0 {
		t.Error("fresh occupancy nonzero")
	}
	o.NextRound()
	if got := o.Add(3); got != 1 {
		t.Errorf("first Add = %d", got)
	}
	if got := o.Add(3); got != 2 {
		t.Errorf("second Add = %d", got)
	}
	o.Add(7)
	if o.Count(3) != 2 || o.Count(7) != 1 || o.Count(0) != 0 {
		t.Error("counts wrong")
	}
	if len(o.Touched()) != 2 {
		t.Errorf("Touched = %v", o.Touched())
	}
	o.NextRound()
	if o.Count(3) != 0 || len(o.Touched()) != 0 {
		t.Error("NextRound did not clear")
	}
}

// TestQuickOccupancyMatchesMap cross-checks Occupancy against a plain map
// across many rounds.
func TestQuickOccupancyMatchesMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		const n = 37
		o := NewOccupancy(n)
		for round := 0; round < 5; round++ {
			o.NextRound()
			ref := make(map[graph.Vertex]int32)
			for k := 0; k < 60; k++ {
				v := graph.Vertex(rng.IntN(n))
				o.Add(v)
				ref[v]++
			}
			for v := graph.Vertex(0); v < n; v++ {
				if o.Count(v) != ref[v] {
					return false
				}
			}
			if len(o.Touched()) != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
