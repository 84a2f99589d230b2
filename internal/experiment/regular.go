package experiment

import (
	"fmt"
	"math"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// regularCase is one regular graph in the Theorem 1 / Theorem 23 sweeps.
type regularCase struct {
	name string
	g    *graph.Graph
	d    int
}

// regularSuite builds the regular-graph test bed: hypercubes (degree
// exactly log2 n), random d-regular graphs with d ≈ 2·ln n, and rings of
// cliques (the "slow" regular family where broadcast takes Θ(n/d) rounds).
//
// Every family in the suite is memoized in the experiment graph cache:
// the Theorem 1/23, lower-bound, and meeting-bound experiments all sweep
// this suite, so each instance — and its walk-index/alias caches — is
// built once across all of them. The random-regular graphs are keyed by
// (spec, per-case derived seed) via the replayable seeded sampler
// (cachedRandom), so repeated sweeps at one experiment seed stop
// re-sampling and giant instances ride the spill tier like any other.
func regularSuite(cfg Config) ([]regularCase, error) {
	var cases []regularCase
	dims := []int{7, 8, 9, 10}
	rrSizes := []int{256, 512, 1024, 2048}
	rcSizes := []int{256, 512, 1024, 2048}
	if cfg.Scale == ScaleSmall {
		dims = []int{5, 6}
		rrSizes = []int{64, 128}
		rcSizes = []int{128}
	}
	for _, dim := range dims {
		g := cachedGraph(fmt.Sprintf("hypercube:%d", dim), func() *graph.Graph { return graph.Hypercube(dim) })
		cases = append(cases, regularCase{name: g.Name(), g: g, d: dim})
	}
	for i, n := range rrSizes {
		d := 2 * int(math.Ceil(math.Log(float64(n))))
		if (n*d)%2 == 1 {
			d++
		}
		g, err := cachedRandom(fmt.Sprintf("randreg:%d,%d", n, d), xrand.Derive(xrand.Derive(cfg.Seed, 90001), i))
		if err != nil {
			return nil, err
		}
		cases = append(cases, regularCase{name: g.Name(), g: g, d: d})
	}
	for _, n := range rcSizes {
		s := 2 * int(math.Ceil(math.Log(float64(n))))
		k := n / s
		if k < 3 {
			k = 3
		}
		g := cachedGraph(fmt.Sprintf("ringcliques:%d,%d", k, s), func() *graph.Graph { return graph.RingOfCliques(k, s) })
		cases = append(cases, regularCase{name: g.Name(), g: g, d: s + 1})
	}
	return cases, nil
}

func init() {
	register(Spec{
		ID:       "thm1-regular",
		Title:    "Theorem 1: T_push ≍ T_visitx on regular graphs with d = Ω(log n)",
		PaperRef: "Theorem 1 (Theorems 10 + 19)",
		Run:      runThm1,
	})
	register(Spec{
		ID:       "thm23-meetx",
		Title:    "Theorem 23: T_meetx ≳ T_visitx on regular graphs (up to an additive O(log n))",
		PaperRef: "Theorem 23",
		Run:      runThm23,
	})
	register(Spec{
		ID:       "lb-log",
		Title:    "Theorems 24/25: Ω(log n) lower bounds for the agent protocols on regular graphs",
		PaperRef: "Theorems 24, 25",
		Run:      runLogLowerBounds,
	})
}

// runThm1 measures T_push and T_visitx across the regular suite and reports
// the ratio band. The paper proves the ratio is Θ(1); the measured band
// should be narrow and, critically, not drift with n — even on the ring of
// cliques where both times are polynomially large.
func runThm1(cfg Config) (*Table, error) {
	cases, err := regularSuite(cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials(10)
	tab := &Table{
		ID:       "thm1-regular",
		Title:    "Theorem 1: T_push ≍ T_visitx on regular graphs with d = Ω(log n)",
		PaperRef: "Theorem 1 (Theorems 10 + 19)",
		Headers:  []string{"graph", "n", "d", "T_push (rounds)", "T_visitx (rounds)", "ratio push/visitx"},
	}
	var ratios []float64
	for i, c := range cases {
		push, err := Measure(ProtoPush, c.g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(2*i))
		if err != nil {
			return nil, err
		}
		visitx, err := Measure(ProtoVisitX, c.g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(2*i+1))
		if err != nil {
			return nil, err
		}
		ratio := push.Summary.Mean / visitx.Summary.Mean
		ratios = append(ratios, ratio)
		tab.AddRow(
			c.name, fmt.Sprintf("%d", c.g.N()), fmt.Sprintf("%d", c.d),
			fmtMean(push.Summary), fmtMean(visitx.Summary), fmt.Sprintf("%.3f", ratio),
		)
	}
	lo, hi := minMax(ratios)
	spread := hi / lo
	verdict := "OK (constant-factor band)"
	if spread > 6 {
		verdict = "CHECK (band wider than 6x)"
	}
	tab.AddNote("ratio band [%.3f, %.3f], spread %.2fx — %s", lo, hi, spread, verdict)
	tab.AddNote("%d trials per point; |A| = n agents from stationarity; source vertex 0", trials)
	tab.AddNote("families: hypercube (d = log2 n), random regular (d ≈ 2 ln n), ring of cliques (slow: T = Θ(n/d) for both protocols)")
	return tab, nil
}

// runThm23 measures T_visitx and T_meetx across the regular suite. The
// theorem implies T_visitx ≤ T_meetx + O(log n), i.e. the normalized slack
// (T_meetx − T_visitx)/ln n is bounded below by a constant that may be
// slightly negative but must not diverge.
func runThm23(cfg Config) (*Table, error) {
	cases, err := regularSuite(cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials(10)
	tab := &Table{
		ID:       "thm23-meetx",
		Title:    "Theorem 23: T_meetx ≳ T_visitx on regular graphs (up to an additive O(log n))",
		PaperRef: "Theorem 23",
		Headers:  []string{"graph", "n", "T_visitx (rounds)", "T_meetx (rounds)", "(meetx − visitx)/ln n"},
	}
	minSlack := math.Inf(1)
	for i, c := range cases {
		visitx, err := Measure(ProtoVisitX, c.g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(2*i))
		if err != nil {
			return nil, err
		}
		meetx, err := Measure(ProtoMeetX, c.g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(2*i+1))
		if err != nil {
			return nil, err
		}
		slack := (meetx.Summary.Mean - visitx.Summary.Mean) / math.Log(float64(c.g.N()))
		if slack < minSlack {
			minSlack = slack
		}
		tab.AddRow(
			c.name, fmt.Sprintf("%d", c.g.N()),
			fmtMean(visitx.Summary), fmtMean(meetx.Summary), fmt.Sprintf("%.2f", slack),
		)
	}
	verdict := "OK (visitx never loses by more than an additive O(log n))"
	if minSlack < -3 {
		verdict = "CHECK (slack below -3 ln n)"
	}
	tab.AddNote("minimum normalized slack %.2f — %s", minSlack, verdict)
	tab.AddNote("meet-exchange uses lazy walks on bipartite families (hypercube), as the paper prescribes; laziness roughly doubles its constant")
	tab.AddNote("%d trials per point; |A| = n agents from stationarity", trials)
	return tab, nil
}

// runLogLowerBounds checks Theorems 24/25: even the *fastest* trial of the
// agent protocols takes Ω(log n) rounds on regular graphs of logarithmic
// degree.
func runLogLowerBounds(cfg Config) (*Table, error) {
	sizes := []int{256, 1024, 4096}
	trials := cfg.trials(20)
	if cfg.Scale == ScaleSmall {
		sizes = []int{128, 256}
	}
	tab := &Table{
		ID:       "lb-log",
		Title:    "Theorems 24/25: Ω(log n) lower bounds for the agent protocols on regular graphs",
		PaperRef: "Theorems 24, 25",
		Headers: []string{
			"n", "d", "min T_visitx", "min T_visitx / ln n",
			"min T_meetx", "min T_meetx / ln n",
		},
	}
	worstV, worstM := math.Inf(1), math.Inf(1)
	for i, n := range sizes {
		d := 2 * int(math.Ceil(math.Log(float64(n))))
		if (n*d)%2 == 1 {
			d++
		}
		g, err := cachedRandom(fmt.Sprintf("randreg:%d,%d", n, d), xrand.Derive(xrand.Derive(cfg.Seed, 90002), i))
		if err != nil {
			return nil, err
		}
		mv, err := Measure(ProtoVisitX, g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(3*i))
		if err != nil {
			return nil, err
		}
		mm, err := Measure(ProtoMeetX, g, 0, core.AgentOptions{}, trials, cfg.Seed+uint64(3*i+1))
		if err != nil {
			return nil, err
		}
		ln := math.Log(float64(n))
		nv := mv.Summary.Min / ln
		nm := mm.Summary.Min / ln
		worstV = math.Min(worstV, nv)
		worstM = math.Min(worstM, nm)
		tab.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", d),
			fmt.Sprintf("%.0f", mv.Summary.Min), fmt.Sprintf("%.2f", nv),
			fmt.Sprintf("%.0f", mm.Summary.Min), fmt.Sprintf("%.2f", nm),
		)
	}
	verdict := "OK (bounded below by a constant multiple of ln n)"
	if worstV < 0.2 || worstM < 0.2 {
		verdict = "CHECK (normalized minimum below 0.2)"
	}
	tab.AddNote("worst normalized minima: visitx %.2f, meetx %.2f — %s", worstV, worstM, verdict)
	tab.AddNote("minimum taken over %d trials per point (finite-sample stand-in for the w.h.p. statement)", trials)
	return tab, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
