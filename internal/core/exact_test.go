package core

import (
	"fmt"
	"math"
	"testing"

	"rumor/internal/async"
	"rumor/internal/distnet"
	"rumor/internal/exact"
	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// Push and push-pull against their exact laws. internal/exact derives the
// law of each protocol's broadcast time by a forward program over informed
// subsets; it shares no code with this package and draws no random
// numbers. Every path a round can take must sample that law: the K = 1
// process the constructor returns, K = 7 bundles under the side rule, and
// K = 7 bundles with each side forced for whole runs. The seeds are fixed, so the tests are
// deterministic; exactAlpha is the chance that fresh seeds raise a false
// alarm, split evenly over a test's checks (Bonferroni).

const (
	exactAlpha  = 1e-3
	exactTrials = 500 // per graph, source, failure probability and path
)

// lawCheck is one comparison of engine samples with a law.
type lawCheck struct {
	name string
	p    float64
}

// requireLaw fails every check whose p-value is below its Bonferroni share
// of exactAlpha.
func requireLaw(t *testing.T, checks []lawCheck) {
	t.Helper()
	bound := exactAlpha / float64(len(checks))
	least := checks[0]
	for _, c := range checks {
		if c.p < bound {
			t.Errorf("%s: p = %.3g, below %.3g (α = %g over %d checks)", c.name, c.p, bound, exactAlpha, len(checks))
		}
		if c.p < least.p {
			least = c
		}
	}
	t.Logf("%d checks; least p = %.3g (%s); bound %.3g", len(checks), least.p, least.name, bound)
}

// rooted is a small connected graph with a source.
type rooted struct {
	g   *graph.Graph
	src graph.Vertex
}

// smallRooted returns every connected graph on 2..maxN vertices with a
// source from each orbit of its automorphisms — one case per rooted
// isomorphism class — and the number of unrooted classes.
func smallRooted(t *testing.T, maxN int) (cases []rooted, classes int) {
	t.Helper()
	for n := 2; n <= maxN; n++ {
		var pairs [][2]int
		for i := range n {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		perms := permutations(n)
		// canon is the least edge code over relabelings, restricted to
		// those taking root to vertex 0 when root >= 0.
		canon := func(mask uint64, root int) uint64 {
			best := ^uint64(0)
			for _, pi := range perms {
				if root >= 0 && pi[root] != 0 {
					continue
				}
				var code uint64
				for e, p := range pairs {
					if mask>>e&1 == 1 {
						a, b := pi[p[0]], pi[p[1]]
						code |= 1 << (min(a, b)*n + max(a, b))
					}
				}
				best = min(best, code)
			}
			return best
		}
		seen, seenRooted := map[uint64]bool{}, map[uint64]bool{}
		for mask := uint64(1); mask < 1<<len(pairs); mask++ {
			b := graph.NewBuilder(n, fmt.Sprintf("n%d-e%x", n, mask))
			for e, p := range pairs {
				if mask>>e&1 == 1 {
					if err := b.AddEdge(graph.Vertex(p[0]), graph.Vertex(p[1])); err != nil {
						t.Fatal(err)
					}
				}
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !graph.IsConnected(g) {
				continue
			}
			if c := canon(mask, -1); !seen[c] {
				seen[c] = true
				classes++
			}
			for r := range n {
				if c := canon(mask, r); !seenRooted[c] {
					seenRooted[c] = true
					cases = append(cases, rooted{g, graph.Vertex(r)})
				}
			}
		}
	}
	return cases, classes
}

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, append(append(append([]int{}, p[:i]...), n-1), p[i:]...))
		}
	}
	return out
}

// lawPValue is Pearson's χ² of broadcast times against pmf, with rounds
// pooled into bins of expected count at least 5 (the law's unfinished tail
// joins the last, open-ended bin). A single bin is a point mass, which the
// caller's support check already decides.
func lawPValue(pmf []float64, rounds []int) float64 {
	trials := float64(len(rounds))
	var lo []int
	var expected []float64
	acc, start, mass := 0.0, 0, 0.0
	for r, q := range pmf {
		acc += q * trials
		mass += q
		if acc >= 5 {
			lo, expected = append(lo, start), append(expected, acc)
			acc, start = 0, r+1
		}
	}
	if len(expected) < 2 {
		return 1
	}
	expected[len(expected)-1] += acc + (1-mass)*trials
	observed := make([]float64, len(expected))
	for _, r := range rounds {
		b := len(lo) - 1
		for lo[b] > r {
			b--
		}
		observed[b]++
	}
	_, _, p := stats.ChiSquare(observed, expected)
	return p
}

// rootedSmall returns the 73 rooted connected graphs on two to five
// vertices that the law tests run on.
func rootedSmall(t *testing.T) []rooted {
	t.Helper()
	cases, classes := smallRooted(t, 5)
	if classes != 30 || len(cases) != 73 {
		t.Fatalf("%d connected graphs and %d rooted ones on 2..5 vertices, want 30 and 73", classes, len(cases))
	}
	return cases
}

// lawPath is one way of running a protocol's trials: a bundle factory at
// a bundle width.
type lawPath struct {
	name    string
	k       int
	factory LaneFactory
}

// lawChecks runs exactTrials trials down each path, each on its own seed,
// and returns one check per path of the broadcast times against pmf. A
// time the law rules out fails the test at once.
func lawChecks(t *testing.T, c rooted, f float64, pmf []float64, paths []lawPath, seed *uint64) []lawCheck {
	t.Helper()
	var checks []lawCheck
	for _, path := range paths {
		*seed++
		res, err := RunManyLanes(c.g, path.factory, exactTrials, 0, *seed, path.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s from %d, f = %g, %s", c.g.Name(), c.src, f, path.name)
		rounds := make([]int, len(res))
		for i, r := range res {
			if !r.Completed || r.Rounds >= len(pmf) || pmf[r.Rounds] == 0 {
				t.Fatalf("%s trial %d: broadcast time %d (completed %v), which the law rules out", name, i, r.Rounds, r.Completed)
			}
			rounds[i] = r.Rounds
		}
		checks = append(checks, lawCheck{name, lawPValue(pmf, rounds)})
	}
	return checks
}

// TestExactPushLaw: on every connected graph with two to five vertices,
// from a source in every orbit of its automorphisms, on reliable links and
// at failure probability 0.25, each push path's broadcast times follow
// exact.PushPMF: no time the law rules out, and Pearson's χ² within the
// budget.
func TestExactPushLaw(t *testing.T) {
	var checks []lawCheck
	seed := uint64(0)
	for _, c := range rootedSmall(t) {
		for _, f := range []float64{0, 0.25} {
			pmf, err := exact.PushPMF(c.g, c.src, f)
			if err != nil {
				t.Fatal(err)
			}
			opts := PushOptions{FailureProb: f}
			view := func(rng *xrand.RNG) (Process, error) { return NewPush(c.g, c.src, rng, opts) }
			bundle := func(rngs []*xrand.RNG) (LaneProcess, error) { return NewBatchedPush(c.g, c.src, rngs, opts) }
			checks = append(checks, lawChecks(t, c, f, pmf, []lawPath{
				{"K=1 view", 1, serialLanes(view)},
				{"K=7", 7, bundle},
				{"K=7 side=informed", 7, withSide(bundle, sideInformed, false, nil)},
				{"K=7 side=uninformed", 7, withSide(bundle, sideUninformed, false, nil)},
			}, &seed)...)
		}
	}
	requireLaw(t, checks)
}

// TestExactPushPullLaw is TestExactPushLaw for push-pull against
// exact.PushPullPMF: the K = 1 process NewPushPull returns, K = 7 bundles
// under the side rule, and K = 7 bundles with each of the three sides
// forced for whole runs.
func TestExactPushPullLaw(t *testing.T) {
	var checks []lawCheck
	seed := uint64(1000)
	for _, c := range rootedSmall(t) {
		for _, f := range []float64{0, 0.25} {
			pmf, err := exact.PushPullPMF(c.g, c.src, f)
			if err != nil {
				t.Fatal(err)
			}
			opts := PushPullOptions{FailureProb: f}
			view := func(rng *xrand.RNG) (Process, error) { return NewPushPull(c.g, c.src, rng, opts) }
			bundle := func(rngs []*xrand.RNG) (LaneProcess, error) { return NewBatchedPushPull(c.g, c.src, rngs, opts) }
			checks = append(checks, lawChecks(t, c, f, pmf, []lawPath{
				{"K=1 process", 1, serialLanes(view)},
				{"K=7", 7, bundle},
				{"K=7 side=all", 7, withSide(bundle, sideAll, false, nil)},
				{"K=7 side=informed", 7, withSide(bundle, sideInformed, false, nil)},
				{"K=7 side=uninformed", 7, withSide(bundle, sideUninformed, false, nil)},
			}, &seed)...)
		}
	}
	requireLaw(t, checks)
}

// TestExactDistnetPushPullLaw: the message-passing runtime's push-pull
// (internal/distnet: one goroutine per vertex, calls and replies through
// mailboxes, its own randomness) follows the same law on reliable links,
// which is all it models.
func TestExactDistnetPushPullLaw(t *testing.T) {
	const trials = 300
	var checks []lawCheck
	seed := uint64(0)
	for _, c := range rootedSmall(t) {
		pmf, err := exact.PushPullPMF(c.g, c.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s from %d, distnet", c.g.Name(), c.src)
		rounds := make([]int, trials)
		for i := range rounds {
			seed++
			r, err := distnet.Run(c.g, c.src, distnet.Config{Protocol: distnet.PushPull, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed || r.Rounds >= len(pmf) || pmf[r.Rounds] == 0 {
				t.Fatalf("%s trial %d: broadcast time %d (completed %v), which the law rules out", name, i, r.Rounds, r.Completed)
			}
			rounds[i] = r.Rounds
		}
		checks = append(checks, lawCheck{name, lawPValue(pmf, rounds)})
	}
	requireLaw(t, checks)
}

// TestExactAsyncLaw: the asynchronous engine (internal/async: a Poisson
// clock per vertex, one exchange per tick) against the continuous-time mean
// exact.AsyncMean derives over informed subsets, on every rooted graph of
// rootedSmall, for push and push-pull. Each check is a two-sided z-test of
// the mean of exactTrials broadcast times on their sample variance.
func TestExactAsyncLaw(t *testing.T) {
	var checks []lawCheck
	seed := uint64(2000)
	for _, c := range rootedSmall(t) {
		for _, p := range []async.Protocol{async.Push, async.PushPull} {
			want, err := exact.AsyncMean(c.g, c.src, p == async.PushPull)
			if err != nil {
				t.Fatal(err)
			}
			var times stats.Welford
			for range exactTrials {
				seed++
				r, err := async.Run(c.g, c.src, xrand.New(seed), async.Config{Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Completed {
					t.Fatalf("%s from %d, async %s: trial did not complete", c.g.Name(), c.src, p)
				}
				times.Add(r.Time)
			}
			z := (times.Mean() - want) / math.Sqrt(times.Variance()/exactTrials)
			checks = append(checks, lawCheck{
				fmt.Sprintf("%s from %d, async %s: mean %.3f against %.3f", c.g.Name(), c.src, p, times.Mean(), want),
				math.Erfc(math.Abs(z) / math.Sqrt2),
			})
		}
	}
	requireLaw(t, checks)
}

// TestExactStarCouponCollector: push from the centre of star:L is a coupon
// collector, Lemma 2(a)'s Θ(n log n): mean L·H_L/(1 − f), with the
// variance exact.StarPush gives. The mean of 2000 trials through the K = 1
// view must sit within the budget of it (a z-test on the exact variance).
func TestExactStarCouponCollector(t *testing.T) {
	const trials = 2000
	var checks []lawCheck
	for _, leaves := range []int{16, 128} {
		g := graph.Star(leaves)
		center, _ := g.Landmark("center")
		for _, f := range []float64{0, 0.25} {
			res, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
				return NewPush(g, center, rng, PushOptions{FailureProb: f})
			}, trials, 0, uint64(leaves)+uint64(4*f))
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, r := range res {
				if !r.Completed {
					t.Fatalf("star:%d f = %g: a trial did not complete", leaves, f)
				}
				sum += float64(r.Rounds)
			}
			mean, variance := exact.StarPush(leaves, f)
			got := sum / trials
			z := (got - mean) / math.Sqrt(variance/trials)
			checks = append(checks, lawCheck{
				fmt.Sprintf("star:%d f = %g: mean %.2f against L·H_L/(1 − f) = %.2f", leaves, f, got, mean),
				math.Erfc(math.Abs(z) / math.Sqrt2),
			})
		}
	}
	requireLaw(t, checks)
}
