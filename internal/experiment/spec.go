package experiment

import (
	"encoding/json"
	"fmt"

	"rumor/internal/core"
	"rumor/internal/graph"
)

// RunSpec is a complete, data-form description of one simulation sweep
// point: graph, protocol, trial count, and seed. It is the unit the
// serving layer canonicalizes, hashes, deduplicates, and caches, so its
// contract is strict determinism: two normalized RunSpecs with equal
// fields produce bit-identical []core.Result on any machine, whether run
// fresh, concurrently, or years apart.
//
// The JSON field names are the serving layer's wire format.
type RunSpec struct {
	// Graph is a graph.ParseSpec spec; Normalize canonicalizes it.
	Graph string `json:"graph"`
	// GraphSeed seeds construction of random graph families; Normalize
	// defaults it to Seed and zeroes it for deterministic families.
	GraphSeed uint64 `json:"graphSeed,omitempty"`
	// Protocol is one of Protos().
	Protocol Proto `json:"protocol"`
	// Source is the source vertex; negative selects the family's default
	// landmark (DefaultSource).
	Source int `json:"source"`
	// Trials is the number of independent trials.
	Trials int `json:"trials"`
	// MaxRounds cuts runs off (0 = the default n² bound).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Seed is the master seed deriving every trial's randomness.
	Seed uint64 `json:"seed"`
	// Alpha is the agent density (agent protocols; ignored when Agents is
	// set). Normalize zeroes it for non-agent protocols.
	Alpha float64 `json:"alpha,omitempty"`
	// Agents overrides Alpha with an explicit agent count.
	Agents int `json:"agents,omitempty"`
	// Churn is the per-round agent replacement probability.
	Churn float64 `json:"churn,omitempty"`
	// Lazy is the walk laziness policy: "auto", "on", or "off".
	Lazy string `json:"lazy,omitempty"`
	// History asks result consumers (the serving layer) to include
	// per-round informed counts; it does not change the simulation.
	History bool `json:"history,omitempty"`
}

// DefaultRunSpec returns the spec defaults shared by the CLI and the
// serving layer: 10 trials of push from the family's default landmark at
// seed 1, agent density 1, automatic laziness. Decoders overlay request
// fields onto this value so an omitted field means its default, not its
// zero.
func DefaultRunSpec() RunSpec {
	return RunSpec{
		Protocol: ProtoPush,
		Source:   -1,
		Trials:   10,
		Seed:     1,
		Alpha:    1,
		Lazy:     "auto",
	}
}

// agentProtocol reports whether p uses the agent system.
func agentProtocol(p Proto) bool {
	return p == ProtoVisitX || p == ProtoMeetX || p == ProtoHybrid
}

// Normalize validates s and returns its canonical form: graph spec
// canonicalized, defaults materialized, and fields that cannot affect the
// result zeroed (agent options of vertex-only protocols, GraphSeed of
// deterministic families, Alpha under an explicit Agents count). Two
// requests meaning the same simulation normalize to identical structs —
// the property the serving layer's dedup/cache key is built on.
func (s RunSpec) Normalize() (RunSpec, error) {
	p, err := graph.ParseSpec(s.Graph)
	if err != nil {
		return RunSpec{}, err
	}
	s.Graph = p.Canonical()
	if p.Random() {
		if s.GraphSeed == 0 {
			s.GraphSeed = s.Seed
		}
	} else {
		s.GraphSeed = 0
	}
	ok := false
	for _, q := range Protos() {
		if s.Protocol == q {
			ok = true
			break
		}
	}
	if !ok {
		return RunSpec{}, fmt.Errorf("experiment: unknown protocol %q", s.Protocol)
	}
	if s.Trials <= 0 {
		return RunSpec{}, fmt.Errorf("experiment: trials must be positive, got %d", s.Trials)
	}
	if s.MaxRounds < 0 {
		return RunSpec{}, fmt.Errorf("experiment: maxRounds must be non-negative, got %d", s.MaxRounds)
	}
	if s.Source < 0 {
		s.Source = -1
	}
	// Agent knobs are validated for every protocol — a nonsense value is a
	// user error even when the protocol would ignore it — then zeroed for
	// vertex-only protocols so the canonical form (and so the serving
	// layer's dedup key) ignores fields that cannot affect the result.
	if s.Agents < 0 {
		return RunSpec{}, fmt.Errorf("experiment: agents must be non-negative, got %d", s.Agents)
	}
	if s.Churn < 0 || s.Churn >= 1 {
		return RunSpec{}, fmt.Errorf("experiment: churn must be in [0,1), got %g", s.Churn)
	}
	switch s.Lazy {
	case "", "auto", "on", "off":
	default:
		return RunSpec{}, fmt.Errorf("experiment: lazy must be auto, on, or off, got %q", s.Lazy)
	}
	if agentProtocol(s.Protocol) {
		if s.Agents > 0 {
			s.Alpha = 0 // Count overrides Alpha; zero it so the key ignores it
		} else if s.Alpha <= 0 {
			s.Alpha = 1
		}
		if s.Lazy == "" {
			s.Lazy = "auto"
		}
	} else {
		// Vertex-only protocols: agent knobs cannot affect the result.
		s.Alpha, s.Agents, s.Churn, s.Lazy = 0, 0, 0, ""
	}
	return s, nil
}

// CanonicalJSON returns the canonical JSON encoding of the spec — the
// byte string request-identity schemes hash. It is deterministic (struct
// field order fixes the encoding) and canonical once the spec has been
// Normalized; callers hashing un-normalized specs get a valid but
// non-canonical identity. Marshaling a RunSpec cannot fail.
func (s RunSpec) CanonicalJSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A RunSpec has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("experiment: marshal spec: %v", err))
	}
	return b
}

// lazyMode converts the textual laziness policy.
func (s RunSpec) lazyMode() (core.LazyMode, error) {
	switch s.Lazy {
	case "", "auto":
		return core.LazyAuto, nil
	case "on":
		return core.LazyOn, nil
	case "off":
		return core.LazyOff, nil
	default:
		return core.LazyAuto, fmt.Errorf("experiment: lazy must be auto, on, or off, got %q", s.Lazy)
	}
}

// AgentOptions materializes the spec's agent configuration.
func (s RunSpec) AgentOptions() (core.AgentOptions, error) {
	lazy, err := s.lazyMode()
	if err != nil {
		return core.AgentOptions{}, err
	}
	return core.AgentOptions{
		Alpha:     s.Alpha,
		Count:     s.Agents,
		ChurnRate: s.Churn,
		Lazy:      lazy,
	}, nil
}

// Build materializes the graph and the resolved source vertex.
// Deterministic families come from the shared LRU graph memoization
// (keyed by canonical spec, built exactly once per residency). Random
// families map GraphSeed through graph.SamplerSeed — the one seed map,
// so the realization equals graph.FromSpec(s.Graph, s.GraphSeed) — and
// memoize it under graph.SeededKey: the replayable samplers make (spec,
// seed) a complete identity, so caching and disk spill are as safe as
// for deterministic graphs.
func (s RunSpec) Build() (*graph.Graph, graph.Vertex, error) {
	p, err := graph.ParseSpec(s.Graph)
	if err != nil {
		return nil, 0, err
	}
	var g *graph.Graph
	if p.Random() {
		g, err = buildRandom(p, graph.SamplerSeed(s.GraphSeed))
		if err != nil {
			return nil, 0, err
		}
	} else {
		// The key is the canonical spec form — the same namespace the
		// fig1/regular harnesses key their graphs under, so a server that
		// also runs experiments shares one instance per graph. Build
		// errors (e.g. star:0) are returned, not cached: a stream of
		// invalid requests takes no recency slots and evicts nothing.
		// With graph storage configured, giant graphs come back
		// mmap-backed from the content-addressed store instead of being
		// rebuilt on the heap.
		g, err = buildDeterministic(p.Canonical(), func() (*graph.Graph, error) {
			return p.BuildSeeded(0)
		})
		if err != nil {
			return nil, 0, err
		}
	}
	src := graph.Vertex(s.Source)
	if s.Source < 0 {
		src = DefaultSource(g)
	}
	if int(src) >= g.N() {
		return nil, 0, fmt.Errorf("experiment: source %d out of range [0,%d)", src, g.N())
	}
	return g, src, nil
}

// Run executes the spec end to end: Build, then Trials independent trials
// through the unified lane engine — bundles at the adaptive width, one
// trial per bundle when an observer is set (see runTrials). emit, when
// non-nil, receives each trial's Result in strict trial order as trials
// complete. Callers wanting canonical behavior should Normalize first;
// Run itself does not mutate s.
func (s RunSpec) Run(emit core.EmitFunc) ([]core.Result, error) {
	g, src, err := s.Build()
	if err != nil {
		return nil, err
	}
	return s.RunOn(g, src, emit)
}

// RunOn runs the spec's trials against an already-built graph and source.
func (s RunSpec) RunOn(g *graph.Graph, src graph.Vertex, emit core.EmitFunc) ([]core.Result, error) {
	agentOpts, err := s.AgentOptions()
	if err != nil {
		return nil, err
	}
	return runTrials(s.Protocol, g, src, agentOpts, s.Trials, s.MaxRounds, s.Seed, emit)
}

// DefaultSource prefers the landmark the paper's lemmas use for each
// family, falling back to vertex 0. It is the resolution of a negative
// RunSpec.Source, shared by cmd/rumor and the serving layer.
func DefaultSource(g *graph.Graph) graph.Vertex {
	for _, name := range []string{"leaf", "leafA", "centerA", "cliqueVertex", "root", "corner", "end", "first"} {
		if v, ok := g.Landmark(name); ok {
			return v
		}
	}
	return 0
}
