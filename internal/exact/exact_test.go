package exact

import (
	"fmt"
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

// TestPushPullPMFByHand checks push-pull's program against laws worked
// out on paper. One edge: both endpoints call each other, so the rumor
// crosses unless both calls fail, probability 1 − f² a round. The path
// 0-1-2 from an end: the middle learns in a round unless the end's call
// fails and the middle's own call does not reach the end unfailed,
// q = 1 − f(1 + f)/2, and the far end learns from the middle with the same
// q once it is informed (its own call, or the middle's), so T is the sum
// of two geometric waits, P(T = t) = (t − 1)q²(1 − q)^(t−2). From the
// middle every leaf pulls in round 1. The triangle: the source pushes to
// one of the two others, and the third pulls from the source with
// probability 1/2; otherwise its round-2 call reaches an informed vertex
// for certain. The star from a leaf: the centre learns in round 1, and
// every other leaf pulls from it in round 2.
func TestPushPullPMFByHand(t *testing.T) {
	negBinomial := func(q float64) func(int) float64 {
		return func(r int) float64 {
			if r < 2 {
				return 0
			}
			return float64(r-1) * q * q * math.Pow(1-q, float64(r-2))
		}
	}
	pointMass := func(at int) func(int) float64 {
		return func(r int) float64 {
			if r == at {
				return 1
			}
			return 0
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		src  graph.Vertex
		f    float64
		want func(int) float64
	}{
		{"edge, f = 0.3", graph.Path(2), 0, 0.3, func(r int) float64 {
			if r < 1 {
				return 0
			}
			return (1 - 0.09) * math.Pow(0.09, float64(r-1))
		}},
		{"path 0-1-2 from an end, f = 0.3", graph.Path(3), 0, 0.3, negBinomial(1 - 0.3*1.3/2)},
		{"path 0-1-2 from an end", graph.Path(3), 0, 0, pointMass(2)},
		{"path 0-1-2 from the middle", graph.Path(3), 1, 0, pointMass(1)},
		{"triangle", graph.Complete(3), 0, 0, func(r int) float64 {
			if r == 1 || r == 2 {
				return 0.5
			}
			return 0
		}},
		{"star:5 from a leaf", graph.Star(5), 1, 0, pointMass(2)},
	} {
		pmf, err := PushPullPMF(c.g, c.src, c.f)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for r, q := range pmf {
			total += q
			if math.Abs(q-c.want(r)) > 1e-12 {
				t.Errorf("%s: P(T = %d) = %.15g, want %.15g", c.name, r, q, c.want(r))
			}
		}
		if 1-total >= tail {
			t.Errorf("%s: the law sums to %.15g", c.name, total)
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
// enumerate, for every program.
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
			t.Errorf("push, %s: accepted", c.name)
		}
		if _, err := PushPullPMF(c.g, c.src, c.f); err == nil {
			t.Errorf("push-pull, %s: accepted", c.name)
		}
		if c.f != 0 {
			continue // AsyncMean takes no failure probability
		}
		if _, err := AsyncMean(c.g, c.src, false); err == nil {
			t.Errorf("async, %s: accepted", c.name)
		}
	}
}

// TestAsyncMeanClosedForms checks the backward program against means
// worked out on paper, where each vertex's joining time is a sum or a
// maximum of independent exponential waits.
//   - Star from its centre, push: only the centre's calls inform, so it is
//     the continuous coupon collector, L·H_L.
//   - Star from its centre, push-pull: each leaf joins at rate 1 + 1/L (its
//     own call, or the centre's) independently of the others, so the mean
//     is the maximum of L such waits, H_L·L/(L + 1).
//   - Path from an end, n ≥ 3, push: the end informs its neighbour at rate
//     1, and each of the n − 2 inner vertices its successor at rate 1/2,
//     1 + 2(n − 2).
//   - Path from an end, push-pull: the first and the last step run at rate
//     1 + 1/2 and the n − 3 between at rate 1/2 + 1/2, 4/3 + (n − 3).
func TestAsyncMeanClosedForms(t *testing.T) {
	mean := func(g *graph.Graph, src graph.Vertex, pull bool) float64 {
		t.Helper()
		m, err := AsyncMean(g, src, pull)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: AsyncMean %.15g, closed form %.15g", name, got, want)
		}
	}
	harmonic := 0.0
	for leaves := 1; leaves < MaxN; leaves++ {
		harmonic += 1 / float64(leaves)
		g := graph.Star(leaves)
		center, _ := g.Landmark("center")
		l := float64(leaves)
		near(fmt.Sprintf("star:%d push", leaves), mean(g, center, false), l*harmonic)
		near(fmt.Sprintf("star:%d push-pull", leaves), mean(g, center, true), harmonic*l/(l+1))
	}
	for n := 3; n <= MaxN; n++ {
		g := graph.Path(n)
		near(fmt.Sprintf("path:%d push", n), mean(g, 0, false), 1+2*float64(n-2))
		near(fmt.Sprintf("path:%d push-pull", n), mean(g, 0, true), 4.0/3+float64(n-3))
	}
}
