package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"os"
	"testing"

	"rumor/internal/par"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// seededCases enumerates one (spec-ish, build) closure per random family
// across a fuzzed parameter grid. Every successful build already proves
// the two-pass contract — BuildStream fails loudly if the pass-1 count
// and the pass-2 placement disagree — so the cases double as the
// count==placement suite.
type seededCase struct {
	name  string
	build func(seed uint64) (*Graph, error)
}

func seededCases() []seededCase {
	var cases []seededCase
	for _, p := range []struct {
		n int
		p float64
	}{{2, 0.5}, {50, 0}, {50, 1}, {64, 0.01}, {300, 0.05}, {400, 0.5}, {1000, 0.003}, {70000, 0.00005}} {
		p := p
		cases = append(cases, seededCase{
			name:  fmt.Sprintf("gnp:%d,%g", p.n, p.p),
			build: func(seed uint64) (*Graph, error) { return ErdosRenyi(p.n, p.p, seed) },
		})
	}
	for _, p := range []struct{ n, d int }{{4, 3}, {30, 2}, {101, 4}, {300, 7}, {1024, 8}} {
		p := p
		cases = append(cases, seededCase{
			name:  fmt.Sprintf("randreg:%d,%d", p.n, p.d),
			build: func(seed uint64) (*Graph, error) { return randomRegular(p.n, p.d, seed) },
		})
	}
	for _, p := range []struct{ n, m int }{{4, 1}, {50, 1}, {200, 3}, {500, 5}} {
		p := p
		cases = append(cases, seededCase{
			name:  fmt.Sprintf("barabasi:%d,%d", p.n, p.m),
			build: func(seed uint64) (*Graph, error) { return BarabasiAlbert(p.n, p.m, seed) },
		})
	}
	for _, p := range []struct {
		n    int
		beta float64
		avg  float64
	}{{16, 3, 2}, {300, 2.5, 6}, {1000, 2.2, 4}, {3000, 2.5, 16}} {
		p := p
		cases = append(cases, seededCase{
			name:  fmt.Sprintf("chunglu:%d,%g,%g", p.n, p.beta, p.avg),
			build: func(seed uint64) (*Graph, error) { return ChungLu(p.n, p.beta, p.avg, seed) },
		})
	}
	return cases
}

// TestSeededSamplersReplayable pins the tentpole contract: the same
// (family, params, seed) yields a byte-identical CSR on every build —
// across repeated builds and across worker counts (GOMAXPROCS 1, 2 and 8,
// with par's cached count refreshed) — while distinct seeds yield
// distinct realizations (except where the distribution is a point mass,
// e.g. p = 0 or p = 1). The gnp:400,0.5 and chunglu:3000,… cases are
// multi-block.
func TestSeededSamplersReplayable(t *testing.T) {
	for _, c := range seededCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g1, err := c.build(42)
			if err != nil {
				t.Fatal(err)
			}
			if err := g1.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			b1 := encodeCSRBytes(t, g1)

			g2, err := c.build(42)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, encodeCSRBytes(t, g2)) {
				t.Fatal("same seed produced different CSR bytes")
			}

			for _, procs := range []int{1, 2, 8} {
				var g *Graph
				var err error
				atProcs(procs, func() { g, err = c.build(42) })
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b1, encodeCSRBytes(t, g)) {
					t.Fatalf("GOMAXPROCS=%d produced different CSR bytes", procs)
				}
			}

			// Distinct-seed divergence is only a near-certainty away from
			// point masses (p = 0, p = 1) and away from tiny instances
			// whose realization space has a handful of members.
			if g1.N() >= 50 && g1.M() > 0 && float64(g1.M()) < 0.99*float64(g1.N())*float64(g1.N()-1)/2 {
				g3, err := c.build(43)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(b1, encodeCSRBytes(t, g3)) {
					t.Fatal("distinct seeds produced identical realizations")
				}
			}
		})
	}
}

// TestSeededRealizationsPinned pins random realizations across commits:
// the SHA-256 of each point's CSR encoding is fixed, so a sampler change
// that alters any draw, any float, or the emitted edge order fails here
// instead of silently re-keying every spilled realization. The points
// cover a gnp with p = 1 (every draw takes Geometric64's p >= 1 arm) and
// a chunglu whose early rows have p >= 1 (the skip is bypassed there).
// The two single-block gnp points, randreg and barabasi carry their
// version-2 digests: block 0 is the single-stream walk. gnp:3000,0.01 and
// chunglu:3000,2.5,16 are six blocks each.
func TestSeededRealizationsPinned(t *testing.T) {
	for _, c := range []struct {
		spec string
		seed uint64
		sha  string
	}{
		{"gnp:2000,0.003", 1, "33733248df5a11f31ad9dc65a348d55206b4fefbbd0d5cf0a63a4b254d1b1cd2"},
		{"gnp:60,1", 7, "a328739ce4f7c5322fc7695206777e9e17e82b044c4612b59cdf9a070c606cf2"},
		{"gnp:3000,0.01", 5, "5ffb8f39a9099ecabc1f4d68b90c570ea38e20e4265f428cbf62d3570d3012dc"},
		{"randreg:1000,6", 1, "e8de6227c3738eef8a0996ede240bfc2ebee6f3fe5bfa13d460762a992ab113d"},
		{"randreg:301,4", 977, "1567a2f14b197f0483dab5a6c3e2b78007682b629aca767e0994c68794ac9c8f"},
		{"barabasi:1000,3", 1, "c60e6e27b960e33c0f5e2ec1cb3c140f422c13db83fdbf0d7d8e25310c8a724c"},
		{"barabasi:500,5", 977, "4fae06043a3d86594cd3e5b93abc17a7fa7d7df40dba6ebe20891870cdb1309b"},
		{"chunglu:2000,2.5,6", 1, "e73e0935717e596badbda823e4312a106545575f2008ce1371206eb52b91d314"},
		{"chunglu:300,2.5,8", 977, "871b215f49d9e07877d0dd80a2599b0f80f4277d81d78464b9e8d7dcfb540b47"},
		{"chunglu:3000,2.5,16", 5, "9ab129e3dc829efe57acfe1ab97fbe8056af7f86273fd1dd6b151c75598c1c10"},
	} {
		g, err := mustParse(t, c.spec).BuildSeeded(c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		sum := sha256.Sum256(encodeCSRBytes(t, g))
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s seed %d: CSR SHA-256 %s, pinned %s — a sampler's draw sequence changed: bump RandomSamplerVersion and re-pin",
				c.spec, c.seed, got, c.sha)
		}
	}
}

// TestGnpTinyPBuildsNoEdges is the regression for skips past 2⁶³: at
// these p every skip is beyond the pair range (the expected edge count is
// below 10⁻¹⁶), so every seed must build the empty graph. Before the
// geometric draw saturated, an out-of-range float→int64 conversion turned
// such skips into skips of 1, and gnp:50,1e-300 built K₅₀.
func TestGnpTinyPBuildsNoEdges(t *testing.T) {
	for _, spec := range []string{"gnp:50,1e-20", "gnp:50,1e-300"} {
		p := mustParse(t, spec)
		for seed := uint64(1); seed <= 64; seed++ {
			g, err := p.BuildSeeded(seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.M() != 0 {
				t.Fatalf("%s seed %d: %d edges, want 0", spec, seed, g.M())
			}
		}
	}
}

// TestGnpMultiBlockComplete builds gnp:N,1 over at least three blocks:
// every pair is an edge, so a pair lost or doubled at a block boundary
// shows as a missing edge or a duplicate, and the graph must be K_N.
func TestGnpMultiBlockComplete(t *testing.T) {
	const n = 200
	if b := gnpSpec(n, 1, 1).Blocks; b < 3 {
		t.Fatalf("gnp:%d,1 is %d blocks, want at least 3", n, b)
	}
	for _, procs := range []int{1, 2} {
		var g *Graph
		var err error
		atProcs(procs, func() { g, err = ErdosRenyi(n, 1, 7) })
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != n*(n-1)/2 || g.MinDegree() != n-1 {
			t.Fatalf("%d procs: gnp:%d,1 has %d edges and minimum degree %d, want K_%d", procs, n, g.M(), g.MinDegree(), n)
		}
	}
}

// TestGnpEdgeCountLaw checks gnp against the law it claims rather than
// against itself: over seeds 1..2000 the edge count of gnp:40,p must be
// Binomial(780, p), and over seeds 1..500 that of the two-block
// gnp:180,0.9 Binomial(16110, 0.9). Degenerate p must give exact counts;
// elsewhere a χ² test over bins pooled to an expected count of at least 5
// must not reject at p < 1e-4. The seeds are fixed, so the verdict is too.
func TestGnpEdgeCountLaw(t *testing.T) {
	type point struct {
		n     int
		prob  float64
		seeds int
	}
	var points []point
	for _, prob := range []float64{1e-20, 1e-17, 0.002, 0.01, 0.05, 0.5, 1 - 1e-12, 1} {
		points = append(points, point{40, prob, 2000})
	}
	points = append(points, point{180, 0.9, 500})
	if gnpSpec(180, 0.9, 1).Blocks < 2 {
		t.Fatal("gnp:180,0.9 is one block; the law needs a multi-block point")
	}
	for _, pt := range points {
		n, prob, seeds := pt.n, pt.prob, pt.seeds
		pairs := n * (n - 1) / 2
		counts := make([]float64, pairs+1)
		spec := mustParse(t, fmt.Sprintf("gnp:%d,%g", n, prob))
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			g, err := spec.BuildSeeded(seed)
			if err != nil {
				t.Fatal(err)
			}
			counts[g.M()]++
		}
		// Below 1e-15 or above 1 − 1e-11 a single edge (or a single
		// missing one) over all realizations has probability < 1e-5.
		if prob < 1e-15 || prob > 1-1e-11 {
			want := 0
			if prob > 0.5 {
				want = pairs
			}
			if counts[want] != float64(seeds) {
				t.Errorf("gnp:%d,%g: %v of %d realizations have %d edges", n, prob, counts[want], seeds, want)
			}
			continue
		}
		var obs, exp []float64
		var o, e float64
		lnC, _ := math.Lgamma(float64(pairs + 1))
		for k := 0; k <= pairs; k++ {
			lk, _ := math.Lgamma(float64(k + 1))
			lr, _ := math.Lgamma(float64(pairs - k + 1))
			pmf := math.Exp(lnC - lk - lr + float64(k)*math.Log(prob) + float64(pairs-k)*math.Log1p(-prob))
			o, e = o+counts[k], e+float64(seeds)*pmf
			if e >= 5 {
				obs, exp = append(obs, o), append(exp, e)
				o, e = 0, 0
			}
		}
		// The upper tail left over joins the last bin.
		obs[len(obs)-1] += o
		exp[len(exp)-1] += e
		stat, df, p := stats.ChiSquare(obs, exp)
		if p < 1e-4 {
			t.Errorf("gnp:%d,%g: χ² = %.1f on %d df, p = %.2g: edge counts are not Binomial(%d, p)", n, prob, stat, df, p, pairs)
		}
	}
}

// TestChungLuPairLaw checks chunglu against the law it claims rather than
// against itself: pair {i, j} is an edge with probability
// q_ij = min(1, w_i·w_j/Σw), independently of every other pair. Pairs are
// classed by the binary magnitudes of i+1 and j+1; over seeds 1..100 of
// the six-block chunglu:3000,2.5,16, the edges realized in each class
// must match 100·Σ q_ij over it by a χ² test at p ≥ 1e-4, classes pooled
// to an expected count of at least 5. A class count is a sum of
// independent Bernoullis, whose variance is below the Poisson variance
// the test assumes, so it errs toward accepting; a 3 % bias in q still
// moves the total by some 45 standard deviations. The seeds are fixed, so
// the verdict is too.
func TestChungLuPairLaw(t *testing.T) {
	const n, beta, avg, seeds = 3000, 2.5, 16.0, 100
	spec, release := chungluSpec(n, beta, avg, 1)
	release()
	if b := spec.Blocks; b < 3 {
		t.Fatalf("chunglu:%d,%g,%g is %d blocks; the law needs a multi-block point", n, beta, avg, b)
	}
	exp := -1 / (beta - 1)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), exp)
	}
	total := avg * n
	w := make([]float64, n)
	for i := range w {
		w[i] = total / sum * math.Pow(float64(i+1), exp)
	}
	classes := bits.Len(uint(n))
	bin := func(i, j int) int { return (bits.Len(uint(i+1))-1)*classes + bits.Len(uint(j+1)) - 1 }
	expected := make([]float64, classes*classes)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			expected[bin(i, j)] += seeds * math.Min(1, w[i]*w[j]/total)
		}
	}
	observed := make([]float64, len(expected))
	for seed := uint64(1); seed <= seeds; seed++ {
		g, err := ChungLu(n, beta, avg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(Vertex(u)) {
				if int(v) > u {
					observed[bin(u, int(v))]++
				}
			}
		}
	}
	var obs, exps []float64
	var o, e float64
	for k := range expected {
		o, e = o+observed[k], e+expected[k]
		if e >= 5 {
			obs, exps = append(obs, o), append(exps, e)
			o, e = 0, 0
		}
	}
	obs[len(obs)-1] += o
	exps[len(exps)-1] += e
	stat, df, p := stats.ChiSquare(obs, exps)
	if p < 1e-4 {
		t.Errorf("chunglu:%d,%g,%g: χ² = %.1f on %d df, p = %.2g: pair classes do not follow min(1, w_i·w_j/Σw)", n, beta, avg, stat, df, p)
	}
}

// TestFloatScratchPlacement: chunglu's power table follows the scratch
// rule — on the heap up to scratchHeapMax, a mapping above it — and both
// placements read back what was written until release.
func TestFloatScratchPlacement(t *testing.T) {
	for _, c := range []struct {
		count  int
		mapped bool
	}{{16, false}, {scratchHeapMax/8 + 1, true}} {
		st := newFloatScratch(c.count)
		if got := st.m != nil; got != c.mapped || len(st.f64) != c.count {
			t.Fatalf("%d entries: mapped %v, len %d; want mapped %v", c.count, got, len(st.f64), c.mapped)
		}
		last := c.count - 1
		st.f64[0], st.f64[last] = 1.5, -2.25
		if st.f64[0] != 1.5 || st.f64[last] != -2.25 {
			t.Fatalf("%d entries: read back %v, %v", c.count, st.f64[0], st.f64[last])
		}
		st.release()
		if st.f64 != nil || st.m != nil {
			t.Fatalf("%d entries: release left the table reachable", c.count)
		}
	}
}

// TestRandomRegularDegrees checks exact d-regularity and simplicity for
// the configuration-model sampler, and connectivity for the Connected
// variant.
func TestRandomRegularDegrees(t *testing.T) {
	for _, p := range []struct{ n, d int }{{30, 2}, {101, 4}, {300, 7}, {1024, 8}} {
		g, err := randomRegular(p.n, p.d, 7)
		if err != nil {
			t.Fatalf("randreg(%d,%d): %v", p.n, p.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if got := g.Degree(Vertex(v)); got != p.d {
				t.Fatalf("randreg(%d,%d): degree(%d) = %d", p.n, p.d, v, got)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("randreg(%d,%d): %v", p.n, p.d, err)
		}
	}
	g, err := RandomRegularConnected(200, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if count, _ := Components(g); count != 1 {
		t.Fatalf("RandomRegularConnected returned %d components", count)
	}
}

// TestConnectedLeanMatchesIsConnected cross-checks the allocation-lean
// DFS of IsConnected against a component count on graphs with and
// without isolated parts.
func TestConnectedLeanMatchesIsConnected(t *testing.T) {
	for _, c := range seededCases() {
		g, err := c.build(5)
		if err != nil {
			t.Fatal(err)
		}
		count, _ := Components(g)
		if got, want := IsConnected(g), count == 1; got != want {
			t.Fatalf("%s: IsConnected = %v, %d components", c.name, got, count)
		}
	}
	for _, g := range []*Graph{Star(3), Path(2)} {
		if !IsConnected(g) {
			t.Fatalf("%s: IsConnected = false", g.Name())
		}
	}
}

// TestBarabasiAlbertShape checks the preferential-attachment invariants:
// edge count C(m+1,2) + (n-m-1)m, minimum degree >= m, and the hub
// landmark.
func TestBarabasiAlbertShape(t *testing.T) {
	const n, m = 500, 5
	g, err := BarabasiAlbert(n, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := (m+1)*m/2 + (n-m-1)*m
	if g.M() != want {
		t.Fatalf("M = %d, want %d", g.M(), want)
	}
	if g.MinDegree() < m {
		t.Fatalf("min degree %d < m = %d", g.MinDegree(), m)
	}
	if _, ok := g.Landmark("hub"); !ok {
		t.Fatal("missing hub landmark")
	}
}

// TestSeededSamplerErrors pins parameter validation.
func TestSeededSamplerErrors(t *testing.T) {
	if _, err := randomRegular(5, 3, 1); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := randomRegular(4, 0, 1); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := randomRegular(4, 4, 1); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := ErdosRenyi(0, 0.5, 1); err == nil {
		t.Error("n < 1 accepted")
	}
	if _, err := ErdosRenyi(10, -0.1, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := BarabasiAlbert(3, 2, 1); err == nil {
		t.Error("n < m+2 accepted")
	}
	if _, err := BarabasiAlbert(10, 0, 1); err == nil {
		t.Error("m = 0 accepted")
	}
	if _, err := ChungLu(1, 2.5, 1, 1); err == nil {
		t.Error("n < 2 accepted")
	}
	if _, err := ChungLu(10, 2, 2, 1); err == nil {
		t.Error("beta <= 2 accepted")
	}
	if _, err := ChungLu(10, 2.5, 0, 1); err == nil {
		t.Error("avgDeg = 0 accepted")
	}
}

// TestBuildSeededMatchesSpecRouting pins that FromSpec and
// ParsedSpec.BuildSeeded route random families through the same seeded
// samplers: FromSpec maps its graph seed through SamplerSeed, so
// BuildSeeded at that sampler seed must reproduce the realization bit for
// bit — and the map must still be the one every spilled realization was
// keyed under.
func TestBuildSeededMatchesSpecRouting(t *testing.T) {
	if got, want := SamplerSeed(99), xrand.New(xrand.Derive(99, 1<<20)).Uint64(); got != want {
		t.Fatalf("SamplerSeed(99) = %#x, want %#x", got, want)
	}
	for _, spec := range []string{"gnp:120,0.06", "randreg:64,4", "barabasi:90,2", "chunglu:80,2.5,4"} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Random() {
			t.Fatalf("%s: expected random family", spec)
		}
		g1, err := FromSpec(spec, 99)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := p.BuildSeeded(SamplerSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCSRBytes(t, g1), encodeCSRBytes(t, g2)) {
			t.Fatalf("%s: FromSpec(spec, s) and BuildSeeded(SamplerSeed(s)) diverge", spec)
		}
		// Deterministic families ignore the seed entirely.
		if _, err := mustParse(t, "star:8").BuildSeeded(123); err != nil {
			t.Fatal(err)
		}
	}
}

func mustParse(t *testing.T, spec string) ParsedSpec {
	t.Helper()
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSeededKeyDistinctSpillFiles pins the disk-store identity: distinct
// sampler seeds spill to distinct content-addressed files, and the same
// seed re-resolves to the same file.
func TestSeededKeyDistinctSpillFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := mustParse(t, "randreg:64,4")
	keyA := SeededKey(p.Canonical(), 1)
	keyB := SeededKey(p.Canonical(), 2)
	if keyA == keyB {
		t.Fatal("distinct seeds produced identical keys")
	}
	if store.Path(keyA) == store.Path(keyB) {
		t.Fatal("distinct keys mapped to one spill file")
	}
	for _, k := range []struct {
		key  string
		seed uint64
	}{{keyA, 1}, {keyB, 2}} {
		g, err := store.GetOrBuild(k.key, func() (*Graph, error) { return p.BuildSeeded(k.seed) })
		if err != nil {
			t.Fatal(err)
		}
		if !g.MmapBacked() {
			t.Fatalf("seed %d: spilled graph not mmap-backed", k.seed)
		}
		if _, err := os.Stat(store.Path(k.key)); err != nil {
			t.Fatalf("seed %d: missing spill file: %v", k.seed, err)
		}
	}
	ga, err := store.GetOrBuild(keyA, func() (*Graph, error) {
		t.Fatal("rebuild despite existing spill file")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.BuildSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCSRBytes(t, ga), encodeCSRBytes(t, direct)) {
		t.Fatal("spilled realization diverges from a fresh seeded build")
	}
}

// TestSeededKeyFormat pins the cache-key shape: canonical spec, seed, and
// sampler version all participate, so bumping RandomSamplerVersion
// invalidates every spilled random realization at once.
func TestSeededKeyFormat(t *testing.T) {
	got := SeededKey("randreg:64,4", 0xabc)
	want := fmt.Sprintf("randreg:64,4@seed=%016x;sampler=v%d", 0xabc, RandomSamplerVersion)
	if got != want {
		t.Fatalf("SeededKey = %q, want %q", got, want)
	}
}

// geometricRef is the skip draw as the samplers first wrote it, with
// ln(1−p) computed inside every draw, plus the saturation at 2⁶³.
func geometricRef(s *xrand.Stream, p float64) int64 {
	if p >= 1 {
		s.Uint64()
		return 1
	}
	x := math.Ceil(math.Log(1-s.Float64()) / math.Log1p(-p))
	if x >= math.MaxInt64 {
		return math.MaxInt64
	}
	return max(1, int64(x))
}

// gnpRefSpec is the gnp emitter as first written — a skip walk that
// recomputes ln(1−p) for every draw and unranks every pair by binary
// search — cut into blocks as the sampler defines them: block b walks the
// pair indices [b·span, (b+1)·span) with span = ⌈2¹³/p⌉, drawing from
// (seed, "gnp", b).
func gnpRefSpec(n int, p float64, seed uint64) StreamSpec {
	total := int64(n) * int64(n-1) / 2
	span, blocks := total, 1
	if s := math.Ceil(8192 / p); s < float64(total) {
		span = int64(s)
		blocks = int((total + span - 1) / span)
	}
	return StreamSpec{N: n, Name: fmt.Sprintf("gnp(%d,%g)", n, p), Blocks: blocks, Emit: func(b int, emit func(u, v Vertex)) {
		if p <= 0 || total == 0 {
			return
		}
		s := xrand.NewStream(seed, gnpStreamUnit, uint64(b))
		end := min(int64(b+1)*span, total)
		for idx := int64(b)*span - 1; ; {
			skip := geometricRef(&s, p)
			if skip >= end-idx {
				return
			}
			idx += skip
			emit(pairFromIndex(idx, n))
		}
	}}
}

// chungluRefSpec is the chunglu emitter as first written, every row
// recomputing its own weight and its first partner's, keyed by row: row i
// draws from (seed, "cl", i). It is one block, so its agreement with the
// multi-block sampler also shows that where blocks are cut does not
// matter.
func chungluRefSpec(n int, beta, avgDeg float64, seed uint64) StreamSpec {
	exp := -1 / (beta - 1)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), exp)
	}
	scale := avgDeg * float64(n) / sum
	total := avgDeg * float64(n)
	w := func(i int) float64 { return scale * math.Pow(float64(i+1), exp) }
	return StreamSpec{N: n, Name: fmt.Sprintf("chunglu(%d,%.1f,%.1f)", n, beta, avgDeg), Emit: func(_ int, emit func(u, v Vertex)) {
		for i := 0; i < n-1; i++ {
			s := xrand.NewStream(seed, chungluStreamUnit, uint64(i))
			wi := w(i)
			j := i + 1
			p := math.Min(1, wi*w(j)/total)
			for j < n && p > 0 {
				if p < 1 {
					skip := geometricRef(&s, p)
					if skip > int64(n-j) {
						break
					}
					j += int(skip) - 1
				}
				q := math.Min(1, wi*w(j)/total)
				if s.Float64()*p < q {
					emit(Vertex(i), Vertex(j))
				}
				p = q
				j++
			}
		}
	}}
}

// FuzzSeededGnpReplay fuzzes (n, p, seed) and asserts replayability, the
// builder's structural invariants, and byte identity with the reference
// gnp and chunglu emitters built through the legacy Builder (chunglu's
// exponent and average degree derive from p, reaching rows whose bound
// is ≥ 1 as p approaches 1). gnp is multi-block once n(n−1)p/2 passes
// 2¹³, chunglu once n·avg does: from p ≈ 0.03 at n = 600.
func FuzzSeededGnpReplay(f *testing.F) {
	f.Add(10, 0.3, uint64(1))
	f.Add(100, 0.01, uint64(7))
	f.Add(2, 1.0, uint64(0))
	f.Add(300, 0.9, uint64(977))
	f.Add(250, 1.0, uint64(9))
	f.Add(600, 0.2, uint64(3))
	f.Fuzz(func(t *testing.T, n int, p float64, seed uint64) {
		if n < 2 || n > 600 || p < 0 || p > 1 || p != p {
			t.Skip()
		}
		g1, err := ErdosRenyi(n, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := g1.Validate(); err != nil {
			t.Fatal(err)
		}
		b1 := encodeCSRBytes(t, g1)
		g2, err := ErdosRenyi(n, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, encodeCSRBytes(t, g2)) {
			t.Fatal("replay diverged")
		}
		if !bytes.Equal(b1, encodeCSRBytes(t, buildLegacy(t, gnpRefSpec(n, p, seed)))) {
			t.Fatal("gnp diverged from the reference emitter")
		}

		beta, avg := 2.1+2*p, math.Max(0.5, p*float64(n-1))
		cl, err := ChungLu(n, beta, avg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCSRBytes(t, cl), encodeCSRBytes(t, buildLegacy(t, chungluRefSpec(n, beta, avg, seed)))) {
			t.Fatalf("chunglu(%d,%g,%g) diverged from the reference emitter", n, beta, avg)
		}
	})
}

// BenchmarkBuildSeeded times one seeded build per family of the
// benchmark's graph-build table. Compare runs at equal -cpu: at 1 every
// emitter runs inline, above it gnp and chunglu sample their blocks in
// parallel. par's processor count is refreshed, since -cpu changes
// GOMAXPROCS between sub-benchmarks.
func BenchmarkBuildSeeded(b *testing.B) {
	for _, spec := range []string{"star:500000", "hypercube:17", "gnp:500000,1.6e-5", "randreg:200000,8", "barabasi:300000,4", "chunglu:100000,2.5,8"} {
		p, err := ParseSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			par.Refresh()
			for i := 0; i < b.N; i++ {
				if _, err := p.BuildSeeded(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRandomRegularExchangeable checks randreg against a law it claims:
// the sampler treats vertices alike, so in randomRegular(8, 3) every pair
// {i, j} is an edge with probability 3/7. Over seeds 1..20000 the 28 pair
// counts must match 20000·3/7 by a χ² test at p ≥ 1e-4. The counts are
// negatively correlated (every realization has 12 edges), so the test errs
// toward accepting. The law does not say the sampler is uniform over
// simple regular graphs, and it is not: the redraw-on-collision repair
// biases which graphs appear (ROADMAP item 2). The seeds are fixed, so the
// verdict is too.
func TestRandomRegularExchangeable(t *testing.T) {
	const n, d, seeds = 8, 3, 20000
	var observed [n][n]float64
	for seed := uint64(1); seed <= seeds; seed++ {
		g, err := randomRegular(n, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(Vertex(u)) {
				if int(v) > u {
					observed[u][v]++
				}
			}
		}
	}
	var obs, exp []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			obs = append(obs, observed[i][j])
			exp = append(exp, seeds*float64(d)/float64(n-1))
		}
	}
	if stat, df, p := stats.ChiSquare(obs, exp); p < 1e-4 {
		t.Errorf("randreg:%d,%d: χ² = %.1f on %d df, p = %.2g: pair inclusions are not exchangeable", n, d, stat, df, p)
	}
}
