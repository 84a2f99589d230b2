package experiment

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/lru"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// Scale selects the sweep size. Full is what `go run ./cmd/experiments`
// prints (or writes to its -out file); Small keeps unit tests and
// benchmarks fast while exercising the same code.
type Scale int

const (
	// ScaleFull runs the paper-scale sweep.
	ScaleFull Scale = iota
	// ScaleSmall runs a reduced sweep for tests and quick benchmarks.
	ScaleSmall
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; identical configs reproduce identical
	// tables.
	Seed uint64
	// Trials overrides the per-experiment default when positive.
	Trials int
	// Scale selects full (paper) or small (test) sweeps.
	Scale Scale
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Scale == ScaleSmall && def > 3 {
		return 3
	}
	return def
}

// Spec is one registered experiment.
type Spec struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(cfg Config) (*Table, error)
}

// Proto names a protocol for harness-level construction.
type Proto string

// Protocol names accepted by the harness and the CLI.
const (
	ProtoPush   Proto = "push"
	ProtoPPull  Proto = "push-pull"
	ProtoVisitX Proto = "visitx"
	ProtoMeetX  Proto = "meetx"
	ProtoHybrid Proto = "hybrid"
)

// Protos lists all protocol names.
func Protos() []Proto {
	return []Proto{ProtoPush, ProtoPPull, ProtoVisitX, ProtoMeetX, ProtoHybrid}
}

// Measurement is the distribution of broadcast times of one protocol on one
// graph.
type Measurement struct {
	Proto   Proto
	N       int // graph size
	Summary stats.Summary
}

// Measure runs `trials` independent trials of protocol p on g from src and
// summarizes the broadcast times. Incomplete runs are an error: every
// experiment in this repository is expected to complete within the default
// round budget.
//
// Trials run on core.RunManyEmit's pool, each worker one trial at a
// time, churn included; a trial's result depends on its seed alone, never
// on the pool's width.
func Measure(p Proto, g *graph.Graph, src graph.Vertex, agentOpts core.AgentOptions, trials int, seed uint64) (Measurement, error) {
	results, err := runTrials(p, g, src, agentOpts, trials, 0, seed, nil)
	if err != nil {
		return Measurement{}, err
	}
	rounds := make([]float64, len(results))
	for i, r := range results {
		if !r.Completed {
			return Measurement{}, fmt.Errorf("experiment: %s on %s trial %d incomplete after %d rounds",
				p, g.Name(), i, r.Rounds)
		}
		rounds[i] = float64(r.Rounds)
	}
	return Measurement{Proto: p, N: g.N(), Summary: stats.Summarize(rounds)}, nil
}

// runTrials runs a protocol sweep on core.RunManyEmit's pool of one-trial
// workers. emit, when non-nil, receives each trial's Result in strict
// trial order as trials complete.
func runTrials(p Proto, g *graph.Graph, src graph.Vertex, agentOpts core.AgentOptions, trials, maxRounds int, seed uint64, emit core.EmitFunc) ([]core.Result, error) {
	return core.RunManyEmit(g, protoFactory(p, g, src, agentOpts), trials, maxRounds, seed, emit)
}

// protoFactory returns the trial constructor for p; an unknown protocol's
// factory fails. Churn and observers apply to the agent protocols only.
func protoFactory(p Proto, g *graph.Graph, src graph.Vertex, agentOpts core.AgentOptions) core.Factory {
	switch p {
	case ProtoPush:
		return func(rng *xrand.RNG) (core.Process, error) {
			return core.NewPush(g, src, rng, core.PushOptions{})
		}
	case ProtoPPull:
		return func(rng *xrand.RNG) (core.Process, error) {
			return core.NewPushPull(g, src, rng, core.PushPullOptions{})
		}
	case ProtoVisitX:
		return func(rng *xrand.RNG) (core.Process, error) {
			return core.NewVisitExchange(g, src, rng, agentOpts)
		}
	case ProtoMeetX:
		return func(rng *xrand.RNG) (core.Process, error) {
			return core.NewMeetExchange(g, src, rng, agentOpts)
		}
	case ProtoHybrid:
		return func(rng *xrand.RNG) (core.Process, error) {
			return core.NewHybrid(g, src, rng, agentOpts)
		}
	}
	return func(*xrand.RNG) (core.Process, error) {
		return nil, fmt.Errorf("experiment: unknown protocol %q", p)
	}
}

// fmtMean renders "mean ± ci95".
func fmtMean(s stats.Summary) string {
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.CI95)
}

// shapeVerdict fits the measured means against the candidate shape
// dictionary — both pure c·f(n) and affine c0+c1·f(n) fits, the latter
// absorbing the lower-order terms that dominate at laptop-scale n — and
// reports whether either best fit matches an accepted shape.
func shapeVerdict(ns, means []float64, accepted ...string) string {
	pure := stats.FitShape(ns, means)[0]
	affineName := "-"
	match := ""
	for _, a := range accepted {
		if pure.Shape == a {
			match = pure.Shape
			break
		}
	}
	if len(ns) >= 3 {
		if affine := stats.FitShapeAffine(ns, means); len(affine) > 0 {
			affineName = affine[0].Shape
			if match == "" {
				for _, a := range accepted {
					if affine[0].Shape == a {
						match = affine[0].Shape
						break
					}
				}
			}
		}
	}
	if match != "" {
		return fmt.Sprintf("fits %s (pure %s, affine %s; expected %s) — OK",
			match, pure.Shape, affineName, accepted[0])
	}
	return fmt.Sprintf("fits %s pure / %s affine (expected one of %v) — CHECK",
		pure.Shape, affineName, accepted)
}

// graphCacheCap bounds the graph memoization: a paper-scale sweep touches
// a few dozen (family, parameter) points, and the serving layer replays
// arbitrary request mixes against the same cache, so the bound keeps a
// long-running process from accumulating every graph it ever built. The
// LRU preserves the earlier sync.Map design's guarantee that concurrent
// first requests for one key build the graph exactly once (per residency:
// an evicted key rebuilds on next use).
const graphCacheCap = 64

// graphCacheBytes bounds the *bytes* the memoized graphs pin, not just
// their count: 64 slots of star:256 is a few megabytes, 64 slots of
// paper-scale heavy trees is tens of gigabytes. Entries are priced by
// Graph.MemoryCost, which charges heap-resident CSR arrays and the packed
// walk index but only page-table noise for mmap-backed graphs — their
// arrays live in reclaimable file cache, so a spilled giant costs the
// cache almost nothing and does not displace the working set.
const graphCacheBytes = 2 << 30

// graphCache memoizes experiment graphs. Graphs are immutable and their
// hot-path caches (packed walk index, stationary alias table) hang off the
// instance, so sharing one instance per (family, parameter) across sweeps,
// trials, and repeated experiment runs amortizes both construction and
// cache building. Deterministic graphs key on the canonical spec alone;
// random realizations key on graph.SeededKey — canonical spec + sampler
// seed + sampler version — which the replayable edge-stream samplers
// make a complete identity (same key, byte-identical CSR).
//
// Eviction never unmaps or frees a graph eagerly: concurrent trials may
// still hold it, so eviction only drops the cache's reference and the
// graph (plus any mmap backing, via its runtime cleanup) is collected
// once the last trial finishes.
var graphCache = newGraphCache()

func newGraphCache() *lru.Cache[string, *graph.Graph] {
	c := lru.New[string, *graph.Graph](graphCacheCap)
	c.SetCost(graphCacheBytes, func(_ string, g *graph.Graph) int64 {
		return g.MemoryCost()
	})
	return c
}

// graphStore, when configured, spills giant deterministic graphs to a
// content-addressed directory and reopens them mmap-backed (see
// ConfigureGraphStorage).
var graphStore atomic.Pointer[graph.Store]

// Graph-memo observability: calls and builds through buildDeterministic.
// Plain atomics with an accessor — the serving layer registers them as
// func-backed metrics without this package importing a metrics registry.
var (
	graphMemoCalls  atomic.Int64
	graphMemoBuilds atomic.Int64
)

// GraphMemoStats reports the deterministic-graph memo's lifetime
// counters: lookups, builds actually invoked (misses), and LRU
// evictions. Hits are calls − builds.
func GraphMemoStats() (calls, builds, evictions int64) {
	return graphMemoCalls.Load(), graphMemoBuilds.Load(), graphCache.Evictions()
}

// GraphStoreStats reports the configured graph store's counters
// (graph.Store.Stats: mmap opens, builds on misses, spill writes); all
// zero while no store is configured.
func GraphStoreStats() (opens, builds, spills int64) {
	if st := graphStore.Load(); st != nil {
		return st.Stats()
	}
	return 0, 0, 0
}

// ConfigureGraphStorage routes deterministic graphs through an on-disk
// content-addressed store rooted at dir (conventionally <data-dir>/graphs,
// next to the serve layer's result spill): graphs whose CSR is at least
// thresholdBytes are encoded once and reopened read-only via mmap, in this
// process and across restarts. thresholdBytes <= 0 keeps every build
// heap-resident while still reopening previously spilled files. Call
// before serving traffic; passing an empty dir disables the store.
func ConfigureGraphStorage(dir string, thresholdBytes int64) error {
	if dir == "" {
		graphStore.Store(nil)
		return nil
	}
	st, err := graph.NewStore(dir, thresholdBytes)
	if err != nil {
		return err
	}
	graphStore.Store(st)
	return nil
}

// buildDeterministic memoizes a deterministic graph, routing the build
// through the spill store when one is configured. The LRU continues to
// guarantee one build per key per residency; the store additionally makes
// rebuilds after eviction (or restart) a file open instead of a
// construction.
func buildDeterministic(key string, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	graphMemoCalls.Add(1)
	return graphCache.GetOrBuildErr(key, func() (*graph.Graph, error) {
		graphMemoBuilds.Add(1)
		if st := graphStore.Load(); st != nil {
			return st.GetOrBuild(key, build)
		}
		return build()
	})
}

// buildRandom memoizes one realization of a random-family spec, keyed by
// (canonical spec, sampler seed, sampler version) via graph.SeededKey.
// The seeded samplers are replayable — the key pins the exact CSR bytes —
// so realizations ride the same memo and spill tiers as deterministic
// graphs: repeated sweeps over the same (spec, graphSeed) stop
// re-sampling, and giant realizations spill once and reopen mmap-backed.
func buildRandom(p graph.ParsedSpec, samplerSeed uint64) (*graph.Graph, error) {
	key := graph.SeededKey(p.Canonical(), samplerSeed)
	graphMemoCalls.Add(1)
	return graphCache.GetOrBuildErr(key, func() (*graph.Graph, error) {
		graphMemoBuilds.Add(1)
		if st := graphStore.Load(); st != nil {
			return st.GetOrBuild(key, func() (*graph.Graph, error) {
				return p.BuildSeeded(samplerSeed)
			})
		}
		return p.BuildSeeded(samplerSeed)
	})
}

// cachedRandom is buildRandom for a textual random-family spec: the
// realization is keyed by the spec and the caller's sampler seed, so every
// experiment that asks for the same (spec, seed) shares one instance — and
// one walk index — per residency instead of re-sampling.
func cachedRandom(spec string, samplerSeed uint64) (*graph.Graph, error) {
	p, err := graph.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return buildRandom(p, samplerSeed)
}

// cachedGraph returns the memoized graph for key, building it exactly once
// on first use (concurrent first callers share one build). Use only for
// deterministic (parameter-only) generators.
func cachedGraph(key string, build func() *graph.Graph) *graph.Graph {
	g, err := buildDeterministic(key, func() (*graph.Graph, error) { return build(), nil })
	if err != nil {
		// Unreachable: the builder above cannot fail.
		panic(err)
	}
	return g
}

// sourceOr returns the named landmark, falling back to vertex 0.
func sourceOr(g *graph.Graph, landmark string) graph.Vertex {
	if v, ok := g.Landmark(landmark); ok {
		return v
	}
	return 0
}

// registry of all experiments. Registration happens in init() functions
// whose order follows file names, so All() re-sorts into presentation
// order (Fig. 1 families, then theorems, then extensions).
var registry []Spec

// presentationOrder fixes how experiments appear in cmd/experiments'
// tables and -list output; unknown ids sort last in registration order.
var presentationOrder = []string{
	"fig1a-star", "fig1b-doublestar", "fig1c-heavytree", "fig1d-siamese",
	"fig1e-cyclestars", "thm1-regular", "thm23-meetx", "lb-log",
	"social", "fairness", "hybrid", "multirumor", "async", "meeting-bound", "ablations",
}

func register(s Spec) { registry = append(registry, s) }

func orderIndex(id string) int {
	for i, o := range presentationOrder {
		if o == id {
			return i
		}
	}
	return len(presentationOrder)
}

// All returns every registered experiment in presentation order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		return orderIndex(out[i].ID) < orderIndex(out[j].ID)
	})
	return out
}

// ByID finds an experiment by ID.
func ByID(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
