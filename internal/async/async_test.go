package async

import (
	"math"
	"testing"
	"testing/quick"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func TestRunValidation(t *testing.T) {
	g := graph.Complete(8)
	if _, err := Run(g, 99, xrand.New(1), Config{Protocol: Push}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := Run(g, 0, xrand.New(1), Config{Protocol: "bogus"}); err == nil {
		t.Error("bad protocol accepted")
	}
}

func TestCompletesOnFamilies(t *testing.T) {
	gs := []*graph.Graph{
		graph.Complete(32),
		graph.Cycle(20),
		graph.Star(20),
		graph.Hypercube(6),
		graph.Grid2D(5, 5),
	}
	for _, g := range gs {
		for _, p := range []Protocol{Push, PushPull} {
			res, err := Run(g, 0, xrand.New(3), Config{Protocol: p})
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name(), p, err)
			}
			if !res.Completed {
				t.Errorf("%s/%s incomplete", g.Name(), p)
			}
			if res.Time <= 0 || res.Activations <= 0 {
				t.Errorf("%s/%s: time %.2f activations %d", g.Name(), p, res.Time, res.Activations)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.Hypercube(7)
	a, err := Run(g, 0, xrand.New(9), Config{Protocol: PushPull})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 0, xrand.New(9), Config{Protocol: PushPull})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Activations != b.Activations {
		t.Error("same seed diverged")
	}
}

func TestMaxTimeCutoff(t *testing.T) {
	g := graph.Cycle(128)
	res, err := Run(g, 0, xrand.New(2), Config{Protocol: Push, MaxTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("cycle(128) async push completed within 1 time unit")
	}
	if res.Time != 1 {
		t.Errorf("Time = %.2f, want the cutoff 1", res.Time)
	}
}

// TestActivationsPerUnitTime: activations happen at total rate n, so the
// count divided by the elapsed time should concentrate near n.
func TestActivationsPerUnitTime(t *testing.T) {
	g := graph.Cycle(256) // slow broadcast => many activations, tight ratio
	res, err := Run(g, 0, xrand.New(5), Config{Protocol: Push})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Activations) / res.Time
	if math.Abs(rate-256) > 30 {
		t.Errorf("activation rate %.1f, want about 256", rate)
	}
}

// TestAsyncPushMatchesSyncOnCompleteGraph: on K_n both the synchronous
// round count and the asynchronous time are Θ(log n); their ratio should
// be a modest constant ([41]).
func TestAsyncPushMatchesSyncShape(t *testing.T) {
	means := func(n int) float64 {
		g := graph.Complete(n)
		sum := 0.0
		const trials = 5
		for seed := uint64(0); seed < trials; seed++ {
			res, err := Run(g, 0, xrand.New(seed), Config{Protocol: Push})
			if err != nil || !res.Completed {
				t.Fatalf("n=%d: %v", n, err)
			}
			sum += res.Time
		}
		return sum / trials
	}
	t256, t1024 := means(256), means(1024)
	// Θ(log n): doubling n twice adds ~2·ln 2 ≈ 1.4 time units per constant;
	// reject if growth looks linear (ratio near 4).
	if ratio := t1024 / t256; ratio > 2 {
		t.Errorf("async push time grew %.2fx from n=256 to n=1024; want logarithmic growth", ratio)
	}
}

// TestPushNeverPulls: under async push an uninformed node's activation
// cannot inform it. Source in a star center: leaves activate but must not
// pull. So only center activations (rate 1) inform leaves: completion needs
// many center activations => time Ω(n log n)-ish, far exceeding push-pull.
func TestPushNeverPulls(t *testing.T) {
	g := graph.Star(64)
	push, err := Run(g, 0, xrand.New(7), Config{Protocol: Push})
	if err != nil {
		t.Fatal(err)
	}
	ppull, err := Run(g, 0, xrand.New(7), Config{Protocol: PushPull})
	if err != nil {
		t.Fatal(err)
	}
	if !push.Completed || !ppull.Completed {
		t.Fatal("incomplete")
	}
	if push.Time < 10*ppull.Time {
		t.Errorf("async push (%.1f) should be far slower than push-pull (%.1f) on the star",
			push.Time, ppull.Time)
	}
}

// TestQuickCompletes: random regular graphs complete under both protocols
// with sane times.
func TestQuickCompletes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 16 + 2*rng.IntN(40)
		d := 4 + rng.IntN(4)
		if n*d%2 == 1 {
			n++
		}
		g, err := graph.RandomRegularConnected(n, d, rng.Uint64())
		if err != nil {
			return true
		}
		for _, p := range []Protocol{Push, PushPull} {
			res, err := Run(g, graph.Vertex(rng.IntN(n)), xrand.New(seed+3), Config{Protocol: p})
			if err != nil || !res.Completed || res.Time <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
