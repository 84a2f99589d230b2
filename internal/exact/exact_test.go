package exact

import (
	"math"
	"testing"

	"rumor/internal/graph"
)

func pmfOf(t *testing.T, g *graph.Graph, src graph.Vertex, f float64) []float64 {
	t.Helper()
	pmf, err := PushPMF(g, src, f)
	if err != nil {
		t.Fatal(err)
	}
	return pmf
}

// TestPushPMFByHand checks the program against laws worked out on paper.
// One edge: the call gets through with probability 1 − f each round. The
// path 0-1-2 from an end: round 1 informs the middle for certain (the
// end's only neighbor), after which the middle reaches the far end with
// probability 1/2 a round. The triangle: round 1 informs a second vertex,
// after which each of the two informed vertices misses the third with
// probability 1/2.
func TestPushPMFByHand(t *testing.T) {
	geometric := func(first int, p float64) func(int) float64 {
		return func(r int) float64 {
			if r < first {
				return 0
			}
			return p * math.Pow(1-p, float64(r-first))
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		f    float64
		want func(int) float64
	}{
		{"edge, f = 0.3", graph.Path(2), 0.3, geometric(1, 0.7)},
		{"path 0-1-2", graph.Path(3), 0, geometric(2, 0.5)},
		{"triangle", graph.Complete(3), 0, geometric(2, 0.75)},
	} {
		pmf := pmfOf(t, c.g, 0, c.f)
		for r, q := range pmf {
			if math.Abs(q-c.want(r)) > 1e-12 {
				t.Errorf("%s: P(T = %d) = %.15g, want %.15g", c.name, r, q, c.want(r))
			}
		}
	}
}

// TestPushPMFStarMoments: from the centre of a star the program's mean
// and variance are the coupon collector's (StarPush), whose mean is
// L·H_L/(1 − f).
func TestPushPMFStarMoments(t *testing.T) {
	for leaves := 1; leaves <= 6; leaves++ {
		g := graph.Star(leaves)
		center, _ := g.Landmark("center")
		harmonic := 0.0
		for k := 1; k <= leaves; k++ {
			harmonic += 1 / float64(k)
		}
		for _, f := range []float64{0, 0.25} {
			var m1, m2 float64
			for r, q := range pmfOf(t, g, center, f) {
				m1 += float64(r) * q
				m2 += float64(r*r) * q
			}
			mean, variance := StarPush(leaves, f)
			if want := float64(leaves) * harmonic / (1 - f); math.Abs(mean-want) > 1e-9*want {
				t.Errorf("star:%d f = %g: StarPush mean %.12g, L·H_L/(1 − f) = %.12g", leaves, f, mean, want)
			}
			if math.Abs(m1-mean) > 1e-9*mean || math.Abs(m2-m1*m1-variance) > 1e-7*(1+variance) {
				t.Errorf("star:%d f = %g: program mean %.12g variance %.12g, coupon collector %.12g and %.12g",
					leaves, f, m1, m2-m1*m1, mean, variance)
			}
		}
	}
}

// TestPushPMFRejects: inputs without a finite law, or too large to
// enumerate.
func TestPushPMFRejects(t *testing.T) {
	b := graph.NewBuilder(3, "edge+isolated")
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	split, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	edge := graph.Path(2)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		src  graph.Vertex
		f    float64
	}{
		{"disconnected", split, 0, 0},
		{"too large", graph.Star(MaxN), 0, 0},
		{"source out of range", edge, 2, 0},
		{"f = 1", edge, 0, 1},
	} {
		if _, err := PushPMF(c.g, c.src, c.f); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
