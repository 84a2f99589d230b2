package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"rumor/internal/graph"
)

// TestCachedGraphEvictionRebuild: the graph memoization is LRU-bounded
// (a ROADMAP open item: long-running sweeps and the serving layer must
// not accumulate every graph ever built). An evicted key rebuilds on next
// use; a resident key never rebuilds.
func TestCachedGraphEvictionRebuild(t *testing.T) {
	isolateGraphs(t)
	builds := 0
	key := "test/evict-target"
	get := func() *graph.Graph {
		return cachedGraph(key, func() *graph.Graph {
			builds++
			return graph.Cycle(9)
		})
	}
	g1 := get()
	if builds != 1 {
		t.Fatalf("builds = %d after first get, want 1", builds)
	}
	// Flood the cache with enough distinct keys to evict the target.
	for i := 0; i < graphCacheCap+8; i++ {
		cachedGraph(fmt.Sprintf("test/evict-filler/%d", i), func() *graph.Graph {
			return graph.Path(4)
		})
	}
	g2 := get()
	if builds != 2 {
		t.Fatalf("builds = %d after eviction, want 2 (rebuild)", builds)
	}
	if g1 == g2 {
		t.Fatal("rebuild returned the evicted instance")
	}
	if get() != g2 || builds != 2 {
		t.Fatalf("resident key rebuilt: builds = %d", builds)
	}
}

func TestRunSpecNormalizeCanonicalizes(t *testing.T) {
	a := DefaultRunSpec()
	a.Graph = " Star : 12 "
	a.Protocol = ProtoVisitX
	b := DefaultRunSpec()
	b.Graph = "star:12"
	b.Protocol = ProtoVisitX
	b.Lazy = "" // Normalize materializes "auto"
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("equivalent specs normalize differently:\n%+v\n%+v", na, nb)
	}
	if na.Graph != "star:12" || na.Lazy != "auto" || na.GraphSeed != 0 {
		t.Fatalf("unexpected normal form: %+v", na)
	}

	// Vertex-only protocols shed agent knobs entirely.
	c := DefaultRunSpec()
	c.Graph = "star:12"
	c.Alpha = 3
	c.Lazy = "on"
	nc, err := c.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nc.Alpha != 0 || nc.Lazy != "" || nc.Agents != 0 {
		t.Fatalf("push spec kept agent knobs: %+v", nc)
	}

	// Random families default GraphSeed to Seed.
	d := DefaultRunSpec()
	d.Graph = "randreg:32,4"
	d.Seed = 7
	nd, err := d.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nd.GraphSeed != 7 {
		t.Fatalf("GraphSeed = %d, want 7", nd.GraphSeed)
	}
}

func TestRunSpecNormalizeRejects(t *testing.T) {
	bad := []func(*RunSpec){
		func(s *RunSpec) { s.Graph = "nope:1" },
		func(s *RunSpec) { s.Protocol = "gossip" },
		func(s *RunSpec) { s.Trials = 0 },
		func(s *RunSpec) { s.MaxRounds = -1 },
		func(s *RunSpec) { s.Lazy = "sometimes" },
		func(s *RunSpec) { s.Churn = 1.5 },
		func(s *RunSpec) { s.Agents = -2 },
	}
	for i, mutate := range bad {
		s := DefaultRunSpec()
		s.Graph = "star:8"
		mutate(&s)
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d: Normalize(%+v) succeeded, want error", i, s)
		}
	}
}

// TestRunSpecDeterminism: the serving contract — equal normalized specs
// yield identical []core.Result on repeated runs, for deterministic and
// random graph families alike.
func TestRunSpecDeterminism(t *testing.T) {
	for _, gspec := range []string{"doublestar:24", "randreg:48,4"} {
		s := DefaultRunSpec()
		s.Graph = gspec
		s.Protocol = ProtoVisitX
		s.Trials = 5
		s.Seed = 3
		s, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: repeated runs differ", gspec)
		}
	}
}

// TestRunSpecMatchesDirectEngine: the spec-driven path must reproduce
// what a hand-assembled core run returns for the same parameters.
func TestRunSpecMatchesDirectEngine(t *testing.T) {
	s := DefaultRunSpec()
	s.Graph = "star:40"
	s.Protocol = ProtoPush
	s.Trials = 4
	s.Seed = 11
	s.Source = 1
	ns, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ns.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Star(40)
	opts, err := ns.AgentOptions()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runTrials(ProtoPush, g, 1, opts, 4, 0, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Graph names match because both build star:40; compare fully.
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunSpec.Run differs from direct runTrials")
	}
}
