package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The smaller-side contract (see boundary.go): a call-protocol trial may
// evaluate a non-boundary round from either side of its
// informed/uninformed cut — every side is exact on every such round — so
// whichever the rule picks, and whichever a test forces, the Result equals
// the plain reference's (plain_test.go), which knows nothing of sides or
// boundary mode and resolves every caller's call in vertex order.
// TestGoldenEngines and the exact-law tests hold the engine, under the
// rule, to outcomes it did not produce.

// sideHooks reaches the unexported side state of the two call processes.
func sideHooks(p Process) (force *side, sampler *neighborSampler, L *callState) {
	switch b := p.(type) {
	case *Call:
		return &b.forceSide, &b.sampler, &b.callState
	case *Hybrid:
		return &b.forceSide, &b.sampler, &b.callState
	}
	panic(fmt.Sprintf("no side hooks on %T", p))
}

// sideTally keeps every process a wrapped factory built.
type sideTally struct {
	mu    sync.Mutex
	procs []Process
}

// took sums the per-side round counters of the kept processes.
func (st *sideTally) took() (sum [numSides]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range st.procs {
		_, _, L := sideHooks(p)
		for s, c := range L.took {
			sum[s] += c
		}
	}
	return sum
}

// withSide wraps a factory: every process is forced to one side (sideRule
// leaves the rule in charge), optionally stripped of the packed walk index
// so calls resolve through the CSR fallback, and kept in tally when one is
// given.
func withSide(f Factory, force side, noIndex bool, tally *sideTally) Factory {
	return func(rng *xrand.RNG) (Process, error) {
		p, err := f(rng)
		if err != nil {
			return nil, err
		}
		fs, sampler, _ := sideHooks(p)
		*fs = force
		if noIndex {
			sampler.idx = nil
		}
		if tally != nil {
			tally.mu.Lock()
			tally.procs = append(tally.procs, p)
			tally.mu.Unlock()
		}
		return p, nil
	}
}

// validSides are the sides a protocol's round can be evaluated from; push
// has no dense sweep, its every-caller pass being its informed side.
func validSides(proto string) []side {
	if proto == "push" || proto == "push-failures" {
		return []side{sideInformed, sideUninformed}
	}
	return []side{sideAll, sideInformed, sideUninformed}
}

// isolatedMix is a 10-cube plus 40 isolated vertices, which no run
// informs: every trial ends in the maxRounds cutoff, with a small
// uninformed side for ever.
func isolatedMix(t testing.TB) *graph.Graph {
	t.Helper()
	cube := graph.Hypercube(8)
	b := graph.NewBuilder(cube.N()+40, "hypercube(8)+isolated")
	for u := 0; u < cube.N(); u++ {
		for _, v := range cube.Neighbors(graph.Vertex(u)) {
			if int(v) > u {
				if err := b.AddEdge(graph.Vertex(u), v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func seededGraph(t testing.TB, spec string, seed uint64) *graph.Graph {
	t.Helper()
	p, err := graph.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.BuildSeeded(seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLaneEquivalenceSmallerSide: push, push-pull and the hybrid (reliable
// and failing links) equal the plain reference — full Result, History
// included — on regular graphs (the rule walks through every side), a
// preferential-attachment graph (hubs, then a thin periphery), the heavy
// tree (degree-1 leaves draw nothing), a graph with isolated vertices
// (cutoff; calls of degree 0) and the double star (sparse rounds, then
// stagnation, then boundary mode), at GOMAXPROCS 1 and 8, with the packed
// walk index and without it.
// Each side is then forced for whole runs, which drives it through the
// tiny-I, middle and tiny-U regimes the rule would never give it; and the
// rule's own runs must have taken every side of every protocol, so the
// unforced half cannot pass by always drawing everybody.
func TestLaneEquivalenceSmallerSide(t *testing.T) {
	type gcase struct {
		g         *graph.Graph
		maxRounds int
	}
	cases := []gcase{
		{graph.Hypercube(10), 0},
		{seededGraph(t, "randreg:1024,7", 5), 0},
		{seededGraph(t, "barabasi:2048,3", 6), 0},
		{graph.HeavyBinaryTree(6), 0},
		{isolatedMix(t), 40},
		{graph.DoubleStar(64), 0},
	}
	const seed = 4711
	ruled := map[string]*sideTally{}
	for _, c := range cases {
		for _, pc := range callProtos(c.g, 0) {
			if ruled[pc.name] == nil {
				ruled[pc.name] = &sideTally{}
			}
			for _, noIndex := range []bool{false, true} {
				unforced := pc
				unforced.engine = withSide(pc.engine, sideRule, noIndex, ruled[pc.name])
				compareTrials(t, c.g, unforced, 7, c.maxRounds, seed)
				for _, s := range validSides(pc.name) {
					forcedSide := pc
					forcedSide.name = fmt.Sprintf("%s/side=%d/noIndex=%v", pc.name, s, noIndex)
					forcedSide.engine = withSide(pc.engine, s, noIndex, nil)
					compareTrials(t, c.g, forcedSide, 7, c.maxRounds, seed)
				}
			}
		}
	}
	for name, tally := range ruled {
		took := tally.took()
		for _, s := range validSides(name) {
			if took[s] == 0 {
				t.Errorf("%s: the rule never took side %d (rounds per side %v): the unforced runs prove nothing about it", name, s, took)
			}
		}
		if took[sideRule] != 0 {
			t.Errorf("%s: %d rounds counted under the no-side marker", name, took[sideRule])
		}
	}
}

// TestLaneSideRule pins pickSide itself: on a d-regular graph push leaves
// its every-caller pass (the informed side) for the uninformed side
// exactly when |U| < n/(d+1) — d|U| replays against |I| sends — and the exchange leaves the sweep for the informed
// side at replayUnits·(d+1)|I| < 2n and for the uninformed side at
// (replayUnits+d)|U| < 2n; no choice ever costs more than the
// every-caller pass it replaces.
func TestLaneSideRule(t *testing.T) {
	for _, c := range []struct{ n, d int }{{1024, 10}, {65536, 16}, {4096, 3}, {30, 29}} {
		n, d := c.n, c.d
		twoM := int64(n) * int64(d)
		for inf := 1; inf <= n; inf++ {
			unf := n - inf
			degInf := int64(inf) * int64(d)

			s, cost := pickSide(false, inf, degInf, n, twoM)
			want := sideInformed
			if unf*(d+1) < n {
				want = sideUninformed
			}
			if s != want {
				t.Fatalf("push n=%d d=%d |U|=%d: side %d, want %d", n, d, unf, s, want)
			}
			if cost > int64(inf) {
				t.Fatalf("push n=%d d=%d |U|=%d: side %d costs %d, more than the %d sends", n, d, unf, s, cost, inf)
			}

			s, cost = pickSide(true, inf, degInf, n, twoM)
			want = sideAll
			if c := replayUnits * (d + 1) * inf; c < 2*n {
				want = sideInformed
			}
			if c := (replayUnits + d) * unf; c < 2*n && (want == sideAll || c < replayUnits*(d+1)*inf) {
				want = sideUninformed
			}
			if s != want {
				t.Fatalf("exchange n=%d d=%d |I|=%d: side %d, want %d", n, d, inf, s, want)
			}
			if cost > 2*int64(n) {
				t.Fatalf("exchange n=%d d=%d |I|=%d: side %d costs %d, more than the sweep's %d", n, d, inf, s, cost, 2*n)
			}
		}
	}
	// Irregular: the star's center alone is a cheap informed side for
	// push-pull only while replaying its n-1 leaves beats the sweep — it
	// never does — and once the center is informed the uninformed leaves
	// are the cheap side only when few are left.
	const leaves = 1000
	if s, _ := pickSide(true, 1, leaves, leaves+1, 2*leaves); s != sideAll {
		t.Errorf("star, center informed: side %d, want the sweep", s)
	}
	if s, _ := pickSide(true, leaves-9, leaves+leaves-10, leaves+1, 2*leaves); s != sideUninformed {
		t.Errorf("star, 10 leaves left: side %d, want the uninformed side", s)
	}
}

// TestBoundaryModeSkipsSideRule: boundary mode takes precedence. Once a
// trial is in it — the star's coupon-collector tail for push, the double
// star's bridge wait for the exchanges — the rule is not consulted again:
// the per-side round counters stop, however small either side of the cut.
func TestBoundaryModeSkipsSideRule(t *testing.T) {
	// Hybrid trials finish through their agents before they stagnate; the
	// trials named here must get there or the test proves nothing.
	mustEnter := []string{"push", "push-pull"}
	for gi, g := range []*graph.Graph{graph.Star(301), graph.DoubleStar(96)} {
		for _, pc := range callProtos(g, 0) {
			entered := 0
			for tr := range 3 {
				p, err := pc.engine(xrand.New(xrand.TrialSeed(31, tr)))
				if err != nil {
					t.Fatal(err)
				}
				_, _, L := sideHooks(p)
				var frozen *[numSides]int
				for round := 0; round < 200 && !p.Done(); round++ {
					p.Step()
					switch now := L.took; {
					case frozen != nil && now != *frozen:
						t.Fatalf("%s on %s trial %d round %d: side counters moved in boundary mode: %v -> %v",
							pc.name, g.Name(), tr, round, *frozen, now)
					case frozen == nil && L.boundary:
						frozen = &now
						entered++
					}
				}
			}
			if entered == 0 && pc.name == mustEnter[gi] {
				t.Errorf("%s on %s: no trial entered boundary mode in 200 rounds", pc.name, g.Name())
			}
		}
	}
}

// TestBoundaryEntryFromSparseLane: a push-pull or hybrid trial can reach
// boundary mode without ever having swept — sparse rounds, stagnation,
// entry — and must finish from there with nothing a dense round would
// have set up. Forced to a sparse side on the double star that is every
// trial's path; on the lossy cycle it is the rule's own.
func TestBoundaryEntryFromSparseLane(t *testing.T) {
	type ecase struct {
		name      string
		g         *graph.Graph
		factory   Factory
		force     side
		maxRounds int
	}
	ds, cyc := graph.DoubleStar(64), graph.Cycle(512)
	var cases []ecase
	for _, pc := range callProtos(ds, 0) {
		if sides := validSides(pc.name); len(sides) == 3 {
			cases = append(cases,
				ecase{pc.name, ds, pc.engine, sideInformed, 0},
				ecase{pc.name, ds, pc.engine, sideUninformed, 0})
		}
	}
	cases = append(cases, ecase{"lossy push-pull", cyc, func(rng *xrand.RNG) (Process, error) {
		return NewPushPull(cyc, 0, rng, PushPullOptions{FailureProb: 0.9})
	}, sideRule, 60})
	for _, c := range cases {
		var tally sideTally
		res, err := RunMany(c.g, withSide(c.factory, c.force, false, &tally), 4, c.maxRounds, 3)
		if err != nil {
			t.Fatal(err)
		}
		for tr, r := range res {
			if c.maxRounds == 0 && !r.Completed {
				t.Errorf("%s on %s side %d trial %d: not completed", c.name, c.g.Name(), c.force, tr)
			}
		}
		hit := 0
		for _, p := range tally.procs {
			if _, _, L := sideHooks(p); L.boundary && L.took[sideAll] == 0 {
				hit++
			}
		}
		if hit == 0 {
			t.Errorf("%s on %s side %d: no trial entered boundary mode without a dense round: the regression is not exercised", c.name, c.g.Name(), c.force)
		}
	}
}

// TestLaneExchangeDenseIsCall: the every-vertex pass resolves calls
// inline instead of through neighborSampler.call and keeps transfers with a
// branch-free filter, so it must return exactly the pending list of the
// plain per-call rule (u's call v, then v if only u is informed, u if only
// v is): on an isolated last vertex, degree-1 leaves and mixed degrees;
// with all-ones, all-zero and mixed informed words and a partial tail
// word; on reliable and lossy links; on the packed index and without it.
func TestLaneExchangeDenseIsCall(t *testing.T) {
	graphs := []*graph.Graph{isolatedMix(t), ringWithIsolated(t), graph.HeavyBinaryTree(6), graph.Star(130), seededGraph(t, "barabasi:700,3", 2)}
	for _, g := range graphs {
		n := g.N()
		// Vertex sets by predicate: every vertex, none, a prefix ending
		// inside a word (all-ones words, then a mixed one, then zeros), a
		// suffix (zeros, then ones to the partial tail word) and a
		// scattered half.
		sets := map[string]func(u int) bool{
			"all":       func(int) bool { return true },
			"none":      func(int) bool { return false },
			"prefix":    func(u int) bool { return u < n/2+5 },
			"suffix":    func(u int) bool { return u >= n/3 },
			"scattered": func(u int) bool { return xrand.Mix3(5, uint64(u), 0)&1 == 0 },
		}
		for _, packed := range []bool{true, false} {
			sampler := newNeighborSampler(g)
			if !packed {
				sampler.idx = nil
			}
			for name, in := range sets {
				informed := bitset.New(n)
				for u := range n {
					if in(u) {
						informed.Set(u)
					}
				}
				for _, failTh := range []uint64{0, xrand.BernoulliThreshold(0.3)} {
					for _, round := range []uint64{1, 77} {
						const seed = 0xdeadbeef
						var want []graph.Vertex
						for u := range graph.Vertex(n) {
							v := sampler.call(seed, u, round, failTh)
							if v < 0 {
								continue
							}
							switch iu, iv := informed.Test(int(u)), informed.Test(int(v)); {
							case iu && !iv:
								want = append(want, v)
							case !iu && iv:
								want = append(want, u)
							}
						}
						got := collectExchangeDense(&sampler, informed, seed, round, failTh, nil)
						if !slices.Equal(got, want) {
							t.Fatalf("%s packed %v informed %s failTh %d round %d: dense pass keeps %v, per-call rule %v",
								g.Name(), packed, name, failTh, round, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzSmallerSideVsPlain: bytes become a small simple graph (n <= 64,
// leaves and isolated vertices allowed, the source its first vertex of
// positive degree), a protocol, a trial count, a seed and a round cutoff
// (disconnected inputs never finish); the engine — a call protocol under
// the rule and forced to each side, on the packed index or the CSR
// fallback, an agent protocol under the rule alone — must return the plain
// reference's Results. Inputs the walk system refuses are skipped.
func FuzzSmallerSideVsPlain(f *testing.F) {
	f.Add([]byte{6, 0, 1, 20, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})                        // path, push
	f.Add([]byte{9, 2, 3, 30, 7, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})                        // star + isolated, push-pull
	f.Add([]byte{4, 4, 7, 12, 9, 9, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})                  // K5 minus a vertex, hybrid
	f.Add([]byte{40, 3, 2, 47, 3, 3, 0, 1, 1, 2, 2, 0, 5, 6, 6, 7, 9, 10, 10, 11, 11, 9}) // components, lossy push-pull
	f.Add([]byte{62, 129, 6, 40, 5, 5, 0, 9, 9, 18, 18, 27, 27, 36, 36, 45, 45, 54, 0, 1, 9, 10, 18, 19})
	f.Add([]byte{9, 6, 4, 40, 2, 8, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 6})       // star + tail + isolated, visit-exchange
	f.Add([]byte{7, 7, 5, 47, 6, 1, 0, 1, 1, 2, 2, 3, 3, 0, 0, 4, 4, 5, 5, 6}) // cycles, meet-exchange
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 2 + int(data[0])%63
		noIndex := data[1]&128 != 0
		trials := 1 + int(data[2])%7
		maxRounds := 1 + int(data[3])%48
		seed := uint64(data[4]) | uint64(data[5])<<8
		b := graph.NewBuilder(n, "fuzz")
		var seen [64][64]bool
		for e := data[6:]; len(e) >= 2; e = e[2:] {
			u, v := int(e[0])%n, int(e[1])%n
			if u == v || seen[u][v] {
				continue
			}
			seen[u][v], seen[v][u] = true, true
			if err := b.AddEdge(graph.Vertex(u), graph.Vertex(v)); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		src := graph.Vertex(0)
		for int(src) < n && g.Degree(src) == 0 {
			src++
		}
		if int(src) == n {
			return // no edge survived
		}
		calls, walks := callProtos(g, src), agentProtos(g, src, AgentOptions{})
		protos := append(calls, walks...)
		pi := int(data[1]&127) % len(protos)
		pc := protos[pi]
		want, err := RunMany(g, pc.plain, trials, maxRounds, seed)
		if err != nil {
			if pi >= len(calls) {
				return // the walk system refuses the input
			}
			t.Fatal(err)
		}
		forced := func(s side) Factory { return withSide(pc.engine, s, noIndex, nil) }
		sides := append([]side{sideRule}, validSides(pc.name)...)
		if pi >= len(calls) {
			forced = func(side) Factory { return pc.engine }
			sides = []side{sideRule}
		}
		for _, s := range sides {
			got, err := RunMany(g, forced(s), trials, maxRounds, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s n=%d trials=%d maxRounds=%d seed=%d side %d noIndex=%v: engine results differ from the plain reference\nplain  %+v\nengine %+v",
					pc.name, n, trials, maxRounds, seed, s, noIndex, want, got)
			}
		}
	})
}
