package async

import (
	"math"
	"strings"
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
	b := graph.NewBuilder(3, "edge+isolated")
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	split, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(split, 0, xrand.New(1), Config{Protocol: PushPull}); err == nil || !strings.Contains(err.Error(), "vertex 2") {
		t.Errorf("isolated vertex: err = %v, want one naming vertex 2", err)
	}
	// Two disjoint paths: no vertex is isolated, yet half the graph is
	// unreachable, and the clock would tick until MaxTime.
	b = graph.NewBuilder(6, "two-paths")
	for _, e := range [][2]graph.Vertex{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	twoPaths, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(twoPaths, 0, xrand.New(1), Config{Protocol: PushPull}); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("disconnected graph: err = %v, want one saying it is disconnected", err)
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

// TestClosedFormMeans holds the engine's mean broadcast time to means worked
// out on paper (exact.AsyncMean agrees with each at n ≤ 12). In each case
// the broadcast time is a sum of independent exponential waits:
//   - star:L from its centre, push: the continuous coupon collector, waits
//     of rate k/L for k = 1..L, mean L·H_L;
//   - star:L from its centre, push-pull: the maximum of L independent waits
//     of rate λ = 1 + 1/L, which is a sum of waits of rate kλ, mean H_L/λ;
//   - path:n from an end, push: one wait of rate 1, then n − 2 of rate 1/2;
//   - path:n from an end, push-pull: rate 3/2 for the first and the last
//     step, rate 1 for the n − 3 between.
//
// Each is a two-sided z-test on the exact variance at α = 1e-3 split over
// the four cases. The trial counts keep the whole test near 3·10⁶ ticks.
func TestClosedFormMeans(t *testing.T) {
	rates := func(steps int, rate func(k int) float64) []float64 {
		rs := make([]float64, steps)
		for i := range rs {
			rs[i] = rate(i + 1)
		}
		return rs
	}
	const bound = 1e-3 / 4
	for _, c := range []struct {
		spec   string
		g      *graph.Graph
		p      Protocol
		trials int
		rates  []float64
	}{
		{"star:64", graph.Star(64), Push, 40, rates(64, func(k int) float64 { return float64(k) / 64 })},
		{"star:1024", graph.Star(1024), PushPull, 100, rates(1024, func(k int) float64 { return float64(k) * (1 + 1.0/1024) })},
		{"path:64", graph.Path(64), Push, 100, rates(63, func(k int) float64 {
			if k == 1 {
				return 1
			}
			return 0.5
		})},
		{"path:128", graph.Path(128), PushPull, 40, rates(127, func(k int) float64 {
			if k == 1 || k == 127 {
				return 1.5
			}
			return 1
		})},
	} {
		var mean, variance float64
		for _, r := range c.rates {
			mean += 1 / r
			variance += 1 / (r * r)
		}
		sum := 0.0
		for i := range c.trials {
			// Vertex 0 is the star's centre and the path's first end.
			res, err := Run(c.g, 0, xrand.New(uint64(1000+i)), Config{Protocol: c.p})
			if err != nil || !res.Completed {
				t.Fatalf("%s %s: %v (completed %v)", c.spec, c.p, err, res.Completed)
			}
			sum += res.Time
		}
		got := sum / float64(c.trials)
		z := (got - mean) / math.Sqrt(variance/float64(c.trials))
		if p := math.Erfc(math.Abs(z) / math.Sqrt2); p < bound {
			t.Errorf("%s %s: mean %.2f over %d trials, closed form %.2f (z = %.2f, p = %.3g)", c.spec, c.p, got, c.trials, mean, z, p)
		}
	}
}
