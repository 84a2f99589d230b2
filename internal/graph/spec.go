package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"rumor/internal/xrand"
)

// The spec grammar is family[:p1[,p2[,p3]]]:
//
//	star:L             star with L leaves
//	doublestar:L       double star, L leaves per star
//	heavytree:LV       heavy binary tree with LV levels
//	siamesetree:LV     Siamese heavy binary tree with LV levels
//	cyclestars:K       cycle of stars of cliques with parameter K
//	complete:N         complete graph K_N
//	cycle:N            N-cycle
//	path:N             N-vertex path
//	bintree:LV         complete binary tree with LV levels
//	hypercube:D        D-dimensional hypercube
//	torus:R,C          R×C torus
//	grid:R,C           R×C grid
//	ringcliques:K,S    K cliques of size S in a ring
//	cliquepath:K,S     K cliques of size S in a path
//	randreg:N,D        connected random D-regular graph on N vertices
//	gnp:N,P            Erdős–Rényi G(N, P); P parsed as float
//	barabasi:N,M       preferential attachment, M edges per new vertex
//	chunglu:N,B,D      Chung-Lu power law, exponent B, average degree D
//
// specFamily describes one family of the grammar: its parameter shape
// (kinds has one letter per parameter: 'i' int, 'f' float), whether its
// construction consumes randomness, and how to build it from parsed
// parameters and a sampler seed. Random families build through their
// seeded edge-stream sampler (randstream.go); deterministic families
// ignore the seed.
type specFamily struct {
	usage  string
	kinds  string
	random bool
	// check rejects parameters outside the family's domain at parse time,
	// so a request naming them is refused before it is queued; nil leaves
	// every check to build.
	check func(p ParsedSpec) error
	// size computes a deterministic family's vertex and edge counts from
	// its parameters in saturating arithmetic, for checkSize.
	size  func(a, b int64) (n, m int64)
	build func(p ParsedSpec, seed uint64) (*Graph, error)
}

// deterministic wraps a parameter-only generator, converting its
// bad-parameter panics to errors for CLI friendliness.
func deterministic(f func(p ParsedSpec) *Graph) func(p ParsedSpec, seed uint64) (*Graph, error) {
	return func(p ParsedSpec, _ uint64) (g *Graph, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("graph: spec %q: %v", p.Canonical(), r)
			}
		}()
		return f(p), nil
	}
}

// specFamilies maps family name to its grammar entry. Iteration never
// happens over this map directly (ordering comes from specOrder), so the
// canonical form and usage text stay stable.
var specFamilies = map[string]specFamily{
	"star": {usage: "star:L", kinds: "i", size: starSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Star(p.Ints[0]) })},
	"doublestar": {usage: "doublestar:L", kinds: "i", size: doubleStarSize,
		build: deterministic(func(p ParsedSpec) *Graph { return DoubleStar(p.Ints[0]) })},
	"heavytree": {usage: "heavytree:LV", kinds: "i", size: heavyTreeSize,
		build: deterministic(func(p ParsedSpec) *Graph { return HeavyBinaryTree(p.Ints[0]) })},
	"siamesetree": {usage: "siamesetree:LV", kinds: "i", size: siameseTreeSize,
		build: deterministic(func(p ParsedSpec) *Graph { return SiameseHeavyTree(p.Ints[0]) })},
	"cyclestars": {usage: "cyclestars:K", kinds: "i", size: cycleStarsSize,
		build: deterministic(func(p ParsedSpec) *Graph { return CycleStarsCliques(p.Ints[0]) })},
	"complete": {usage: "complete:N", kinds: "i", size: completeSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Complete(p.Ints[0]) })},
	"cycle": {usage: "cycle:N", kinds: "i", size: cycleSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Cycle(p.Ints[0]) })},
	"path": {usage: "path:N", kinds: "i", size: pathSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Path(p.Ints[0]) })},
	"bintree": {usage: "bintree:LV", kinds: "i", size: binTreeSize,
		build: deterministic(func(p ParsedSpec) *Graph { return BinaryTree(p.Ints[0]) })},
	"hypercube": {usage: "hypercube:D", kinds: "i", check: checkHypercube,
		build: deterministic(func(p ParsedSpec) *Graph { return Hypercube(p.Ints[0]) })},
	"torus": {usage: "torus:R,C", kinds: "ii", size: torusSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Torus2D(p.Ints[0], p.Ints[1]) })},
	"grid": {usage: "grid:R,C", kinds: "ii", size: gridSize,
		build: deterministic(func(p ParsedSpec) *Graph { return Grid2D(p.Ints[0], p.Ints[1]) })},
	"ringcliques": {usage: "ringcliques:K,S", kinds: "ii", size: ringCliquesSize,
		build: deterministic(func(p ParsedSpec) *Graph { return RingOfCliques(p.Ints[0], p.Ints[1]) })},
	"cliquepath": {usage: "cliquepath:K,S", kinds: "ii", size: cliquePathSize,
		build: deterministic(func(p ParsedSpec) *Graph { return CliquePath(p.Ints[0], p.Ints[1]) })},
	"randreg": {usage: "randreg:N,D", kinds: "ii", random: true, check: checkRandReg,
		build: func(p ParsedSpec, seed uint64) (*Graph, error) {
			return RandomRegularConnected(p.Ints[0], p.Ints[1], seed)
		}},
	"gnp": {usage: "gnp:N,P", kinds: "if", random: true,
		build: func(p ParsedSpec, seed uint64) (*Graph, error) {
			return ErdosRenyi(p.Ints[0], p.Floats[0], seed)
		}},
	"barabasi": {usage: "barabasi:N,M", kinds: "ii", random: true,
		build: func(p ParsedSpec, seed uint64) (*Graph, error) {
			return BarabasiAlbert(p.Ints[0], p.Ints[1], seed)
		}},
	"chunglu": {usage: "chunglu:N,B,D", kinds: "iff", random: true, check: checkChungLu,
		build: func(p ParsedSpec, seed uint64) (*Graph, error) {
			return ChungLu(p.Ints[0], p.Floats[0], p.Floats[1], seed)
		}},
}

// Every graph's size bounds. Vertices are int32, so n is at most
// math.MaxInt32. The CSR keeps its 2m neighbor slots of 4 bytes in one
// slice, on the heap or mapped, and no Go slice on a 64-bit platform
// exceeds 2^48 bytes, so 2m is at most 2^46.
const (
	maxSpecVertices  = math.MaxInt32
	maxSpecEndpoints = 1 << 46
)

// checkSize refuses a deterministic spec whose graph would exceed the
// size bounds, naming the bound. Its counts saturate rather than wrap, so
// no parameter is large enough to slip under a bound; parameters below a
// family's minimum are left to build.
func checkSize(p ParsedSpec, size func(a, b int64) (n, m int64)) error {
	var a, b int64
	a = int64(p.Ints[0])
	if len(p.Ints) > 1 {
		b = int64(p.Ints[1])
	}
	n, m := size(a, b)
	switch {
	case n > maxSpecVertices:
		return specError(p, fmt.Errorf("graph: %s needs n <= %d vertices, got n = %s", p.Family, maxSpecVertices, satString(n)))
	case m > maxSpecEndpoints/2:
		return specError(p, fmt.Errorf("graph: %s needs 2m <= %d neighbor slots, got m = %s edges", p.Family, int64(maxSpecEndpoints), satString(m)))
	}
	return nil
}

// satString renders a count; a saturated one reads as a lower bound.
func satString(x int64) string {
	if x == math.MaxInt64 {
		return ">= " + strconv.FormatInt(x, 10)
	}
	return strconv.FormatInt(x, 10)
}

// Saturating arithmetic for spec sizes: negative operands read as 0 and
// results stop at math.MaxInt64, which every bound is far below.

func satAdd(a, b int64) int64 {
	a, b = max(a, 0), max(b, 0)
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	a, b = max(a, 0), max(b, 0)
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// satDec returns a − 1, staying saturated.
func satDec(a int64) int64 {
	if a == math.MaxInt64 {
		return a
	}
	return max(a, 1) - 1
}

// satPow2 returns 2^e.
func satPow2(e int64) int64 {
	if e >= 63 {
		return math.MaxInt64
	}
	return 1 << max(e, 0)
}

// satPairs returns C(s, 2), the edges of an s-clique.
func satPairs(s int64) int64 { return satMul(s, satDec(s)) / 2 }

// The deterministic families' vertex and edge counts from their one or
// two parameters, as their generators (generators.go) declare them in
// StreamSpec.N and StreamSpec.M.

func starSize(l, _ int64) (n, m int64)       { return satAdd(l, 1), l }
func doubleStarSize(l, _ int64) (n, m int64) { return satAdd(satMul(2, l), 2), satAdd(satMul(2, l), 1) }
func completeSize(n, _ int64) (int64, int64) { return n, satPairs(n) }
func cycleSize(n, _ int64) (int64, int64)    { return n, n }
func pathSize(n, _ int64) (int64, int64)     { return n, satDec(n) }
func torusSize(r, c int64) (n, m int64)      { n = satMul(r, c); return n, satMul(2, n) }

func binTreeSize(lv, _ int64) (n, m int64) {
	n = satDec(satPow2(lv))
	return n, satDec(n)
}

// heavyTreeSize: a binary tree of LV levels whose 2^(LV−1) leaves form a
// clique.
func heavyTreeSize(lv, _ int64) (n, m int64) {
	n = satDec(satPow2(lv))
	return n, satAdd(satDec(n), satPairs(satPow2(satDec(lv))))
}

// siameseTreeSize: two heavy trees sharing their root.
func siameseTreeSize(lv, _ int64) (n, m int64) {
	nA, mA := heavyTreeSize(lv, 0)
	return satDec(satMul(2, nA)), satMul(2, mA)
}

// cycleStarsSize: K centres on a cycle, K leaves per centre, and a
// K-clique hanging off every leaf.
func cycleStarsSize(k, _ int64) (n, m int64) {
	k2 := satMul(k, k)
	n = satAdd(k, satAdd(k2, satMul(k2, k)))
	m = satAdd(k, satAdd(satMul(k2, satAdd(k, 1)), satMul(k2, satPairs(k))))
	return n, m
}

func gridSize(r, c int64) (n, m int64) {
	return satMul(r, c), satAdd(satMul(r, satDec(c)), satMul(satDec(r), c))
}

func ringCliquesSize(k, s int64) (n, m int64) {
	n = satMul(k, s)
	return n, satAdd(satMul(k, satPairs(s)), n)
}

func cliquePathSize(k, s int64) (n, m int64) {
	return satMul(k, s), satAdd(satMul(k, satPairs(s)), satDec(k))
}

// checkHypercube, checkRandReg and checkChungLu run their generators' own
// domain checks at parse time.
func checkHypercube(p ParsedSpec) error { return specError(p, hypercubeDomain(p.Ints[0])) }
func checkRandReg(p ParsedSpec) error   { return specError(p, randRegDomain(p.Ints[0], p.Ints[1])) }
func checkChungLu(p ParsedSpec) error {
	return specError(p, chungLuDomain(p.Ints[0], p.Floats[0], p.Floats[1]))
}

// specError names the spec a domain error is about; nil stays nil.
func specError(p ParsedSpec, err error) error {
	if err != nil {
		return fmt.Errorf("graph: spec %q: %w", p.Canonical(), err)
	}
	return nil
}

// specOrder fixes the presentation order of SpecFamilies.
var specOrder = []string{
	"star", "doublestar", "heavytree", "siamesetree", "cyclestars",
	"complete", "cycle", "path", "bintree", "hypercube", "torus", "grid",
	"ringcliques", "cliquepath", "randreg", "gnp", "chunglu", "barabasi",
}

// ParsedSpec is a validated, normalized graph spec. Two textual specs that
// differ only in case, whitespace, or numeric rendering ("0.20" vs "0.2")
// parse to ParsedSpecs with identical Canonical forms and Hashes — the
// stability the serving layer's request deduplication is keyed on.
type ParsedSpec struct {
	// Family is the lowercased family name.
	Family string
	// Ints holds the integer parameters in positional order.
	Ints []int
	// Floats holds the float parameters in positional order.
	Floats []float64
	// kinds mirrors specFamily.kinds, for canonical rendering.
	kinds string
	// random records whether building consumes randomness.
	random bool
}

// ParseSpec validates and normalizes a textual graph spec without building
// the graph. It checks family, arity and parameter syntax, and the bounds
// a family can state without building: every deterministic family's
// vertex and edge counts (checkSize), the hypercube's dimension, randreg's
// 0 < D < N with N·D even and chunglu's parameters. Other value-range
// errors surface when the graph is built.
func ParseSpec(spec string) (ParsedSpec, error) {
	name, args, _ := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	fam, ok := specFamilies[name]
	if !ok {
		return ParsedSpec{}, fmt.Errorf("graph: unknown family %q (see the ParseSpec grammar)", name)
	}
	var parts []string
	if args != "" {
		parts = strings.Split(args, ",")
	}
	if len(parts) != len(fam.kinds) {
		return ParsedSpec{}, fmt.Errorf("graph: spec %q wants %d parameters, got %d", spec, len(fam.kinds), len(parts))
	}
	p := ParsedSpec{Family: name, kinds: fam.kinds, random: fam.random}
	for i, raw := range parts {
		raw = strings.TrimSpace(raw)
		switch fam.kinds[i] {
		case 'i':
			v, err := strconv.Atoi(raw)
			if err != nil {
				return ParsedSpec{}, fmt.Errorf("graph: spec %q parameter %q: %w", spec, raw, err)
			}
			p.Ints = append(p.Ints, v)
		case 'f':
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return ParsedSpec{}, fmt.Errorf("graph: spec %q parameter %q: %w", spec, raw, err)
			}
			p.Floats = append(p.Floats, v)
		}
	}
	if fam.size != nil {
		if err := checkSize(p, fam.size); err != nil {
			return ParsedSpec{}, err
		}
	}
	if fam.check != nil {
		if err := fam.check(p); err != nil {
			return ParsedSpec{}, err
		}
	}
	return p, nil
}

// Canonical returns the canonical textual form of the spec: lowercased
// family, no whitespace, integers in base 10, floats in shortest
// round-trip rendering. Parsing the canonical form yields an identical
// ParsedSpec.
func (p ParsedSpec) Canonical() string {
	var sb strings.Builder
	sb.WriteString(p.Family)
	ii, fi := 0, 0
	for i := range p.kinds {
		if i == 0 {
			sb.WriteByte(':')
		} else {
			sb.WriteByte(',')
		}
		switch p.kinds[i] {
		case 'i':
			sb.WriteString(strconv.Itoa(p.Ints[ii]))
			ii++
		case 'f':
			sb.WriteString(strconv.FormatFloat(p.Floats[fi], 'g', -1, 64))
			fi++
		}
	}
	return sb.String()
}

// Random reports whether building this spec consumes randomness — true
// for the generated families (randreg, gnp, barabasi, chunglu), whose
// identity depends on the build seed. Deterministic specs are safe to
// memoize by Canonical form alone.
func (p ParsedSpec) Random() bool { return p.random }

// Hash returns a stable 64-bit FNV-1a hash of the canonical form. It
// depends only on the canonical string, so it is identical across
// processes, platforms, and releases that keep the grammar. It is a
// compact spec identity for callers that want a fixed-width key; note
// the graph cache keys on Canonical directly and the serving layer
// hashes the full request spec (serve.jobID), not this value.
func (p ParsedSpec) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.Canonical()))
	return h.Sum64()
}

// BuildSeeded constructs the graph from an explicit sampler seed. For
// random families it is the entry point of the replayable edge-stream
// samplers: the same (spec, seed) always yields a byte-identical CSR,
// which is what lets realizations be memoized and disk-spilled under
// SeededKey(p.Canonical(), seed). Deterministic families ignore the seed.
// Callers holding a graph seed map it through SamplerSeed first (FromSpec
// does both).
func (p ParsedSpec) BuildSeeded(seed uint64) (*Graph, error) {
	fam, ok := specFamilies[p.Family]
	if !ok {
		return nil, fmt.Errorf("graph: unknown family %q (see the ParseSpec grammar)", p.Family)
	}
	return fam.build(p, seed)
}

// CanonicalSpec parses spec and returns its canonical form.
func CanonicalSpec(spec string) (string, error) {
	p, err := ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return p.Canonical(), nil
}

// graphSeedLane is the Derive lane separating graph-construction
// randomness from protocol randomness, so a run whose graph seed equals
// its protocol seed still draws the two independently.
const graphSeedLane = 1 << 20

// SamplerSeed maps a graph seed — the -seed of cmd/graphgen and cmd/rumor,
// the graphSeed of /v1/run, the seed of FromSpec — to the sampler seed
// BuildSeeded and SeededKey take. It is the one place that mapping is
// defined, so every entry point builds the same realization for the same
// (spec, seed).
func SamplerSeed(graphSeed uint64) uint64 {
	return xrand.New(xrand.Derive(graphSeed, graphSeedLane)).Uint64()
}

// FromSpec builds a graph from a compact textual description (see the
// grammar above) and a graph seed: ParseSpec, then BuildSeeded at
// SamplerSeed(seed). Deterministic families ignore the seed.
func FromSpec(spec string, seed uint64) (*Graph, error) {
	p, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return p.BuildSeeded(SamplerSeed(seed))
}

// SpecFamilies lists the family usages FromSpec accepts, for CLI usage
// text.
func SpecFamilies() []string {
	out := make([]string, len(specOrder))
	for i, name := range specOrder {
		out[i] = specFamilies[name].usage
	}
	return out
}
