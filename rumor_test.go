package rumor_test

import (
	"testing"

	"rumor"
)

// These tests exercise the public facade exactly the way the README and the
// examples do, guaranteeing the documented API surface stays importable and
// coherent.

func TestQuickstartFlow(t *testing.T) {
	g := rumor.Star(64)
	rng := rumor.NewRNG(42)
	p, err := rumor.NewVisitExchange(g, 1, rng, rumor.AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := rumor.Run(g, p, 0)
	if !res.Completed {
		t.Fatalf("quickstart run incomplete: %+v", res)
	}
	if res.Rounds <= 0 || res.Rounds > 200 {
		t.Errorf("star visit-exchange rounds = %d, expected small", res.Rounds)
	}
}

func TestFacadeGraphHelpers(t *testing.T) {
	g := rumor.DoubleStar(16)
	if !rumor.IsConnected(g) || !rumor.IsBipartite(g) {
		t.Error("double star connectivity/bipartiteness wrong via facade")
	}
	if d := rumor.Diameter(g); d != 3 {
		t.Errorf("double star diameter = %d, want 3", d)
	}
	if _, ok := g.Landmark("centerA"); !ok {
		t.Error("landmark lost through facade")
	}
}

func TestFacadeAllProtocols(t *testing.T) {
	g := rumor.Complete(16)
	rng := rumor.NewRNG(7)
	build := []func() (rumor.Process, error){
		func() (rumor.Process, error) { return rumor.NewPush(g, 0, rng, rumor.PushOptions{}) },
		func() (rumor.Process, error) { return rumor.NewPushPull(g, 0, rng, rumor.PushPullOptions{}) },
		func() (rumor.Process, error) { return rumor.NewVisitExchange(g, 0, rng, rumor.AgentOptions{}) },
		func() (rumor.Process, error) {
			return rumor.NewMeetExchange(g, 0, rng, rumor.AgentOptions{Lazy: rumor.LazyAuto})
		},
		func() (rumor.Process, error) { return rumor.NewHybrid(g, 0, rng, rumor.AgentOptions{}) },
	}
	for i, b := range build {
		p, err := b()
		if err != nil {
			t.Fatalf("constructor %d: %v", i, err)
		}
		if res := rumor.Run(g, p, 0); !res.Completed {
			t.Errorf("%s incomplete", p.Name())
		}
	}
}

func TestFacadeRunMany(t *testing.T) {
	g := rumor.Hypercube(5)
	results, err := rumor.RunMany(g, func(rng *rumor.RNG) (rumor.Process, error) {
		return rumor.NewPush(g, 0, rng, rumor.PushOptions{})
	}, 4, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestFacadeCoupling(t *testing.T) {
	g := rumor.Hypercube(5)
	res, err := rumor.RunCoupled(g, 0, rumor.NewRNG(5), rumor.CouplingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyLemma13(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDistributed(t *testing.T) {
	g := rumor.Complete(16)
	res, err := rumor.RunDistributed(g, 0, rumor.DistConfig{Protocol: rumor.DistPushPull, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("distributed push-pull incomplete")
	}
}

func TestFacadeEdgeUsage(t *testing.T) {
	g := rumor.DoubleStar(8)
	usage := rumor.NewEdgeUsage(g)
	p, err := rumor.NewVisitExchange(g, 0, rumor.NewRNG(1), rumor.AgentOptions{Observer: usage.Observe})
	if err != nil {
		t.Fatal(err)
	}
	rumor.Run(g, p, 0)
	if usage.Total() == 0 {
		t.Error("no edge usage recorded through facade")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(rumor.Experiments()) < 10 {
		t.Errorf("expected at least 10 registered experiments, got %d", len(rumor.Experiments()))
	}
	spec, ok := rumor.ExperimentByID("fig1a-star")
	if !ok {
		t.Fatal("fig1a-star missing")
	}
	tab, err := spec.Run(rumor.ExperimentConfig{Seed: 3, Scale: rumor.ScaleSmall, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("empty experiment table via facade")
	}
}

func TestFacadeRandomGraphs(t *testing.T) {
	g, err := rumor.GraphFromSpec("randreg:64,6", 11)
	if err != nil {
		t.Fatal(err)
	}
	if reg, d := g.IsRegular(); !reg || d != 6 || !rumor.IsConnected(g) {
		t.Error("random regular graph wrong through facade")
	}
	if _, err := rumor.GraphFromSpec("chunglu:100,2.5,6", 11); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.GraphFromSpec("gnp:50,0.1", 11); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.GraphFromSpec("randreg:5,3", 11); err == nil {
		t.Error("odd n*d accepted through facade")
	}
}

func TestFacadeOddEvenCoupling(t *testing.T) {
	g := rumor.Hypercube(5)
	res, err := rumor.RunCoupledOddEven(g, 0, rumor.NewRNG(5), rumor.CouplingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.MaxSlowdown()
	if err != nil || s <= 0 {
		t.Fatalf("MaxSlowdown = %.2f, err %v", s, err)
	}
}

func TestFacadeMultiRumor(t *testing.T) {
	g := rumor.Hypercube(5)
	res, err := rumor.RunMultiRumor(g, []rumor.Rumor{{Source: 0}, {Source: 3, Round: 5}},
		rumor.NewRNG(2), rumor.AgentOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.BroadcastRounds) != 2 {
		t.Fatalf("multi-rumor result wrong: %+v", res)
	}
}

func TestFacadeAsync(t *testing.T) {
	g := rumor.Complete(32)
	res, err := rumor.RunAsync(g, 0, rumor.NewRNG(3), rumor.AsyncConfig{Protocol: rumor.AsyncPushPull})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Time <= 0 {
		t.Fatalf("async result wrong: %+v", res)
	}
}

func TestFacadeDistributedVisitExchange(t *testing.T) {
	g := rumor.Complete(24)
	res, err := rumor.RunDistributedVisitExchange(g, 0, rumor.DistAgentConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("distributed visit-exchange incomplete")
	}
}

func TestFacadeBarabasiAlbert(t *testing.T) {
	g, err := rumor.GraphFromSpec("barabasi:120,3", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rumor.IsConnected(g) {
		t.Error("preferential attachment graph disconnected via facade")
	}
}
