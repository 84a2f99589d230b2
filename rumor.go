// Package rumor is a simulation library for randomized information
// dissemination in networks, reproducing "How to Spread a Rumor: Call Your
// Neighbors or Take a Walk?" (Giakkoupis, Mallmann-Trenn, Saribekyan;
// PODC 2019).
//
// It implements the paper's four protocols — push, push-pull,
// visit-exchange, and meet-exchange — with exact synchronous-round
// semantics, every graph family from the paper's Figure 1, the coupling
// machinery behind its main theorem, a goroutine-per-node distributed
// runtime, and an experiment harness that regenerates every figure and
// theorem-level claim as a measured table.
//
// Quick start:
//
//	g := rumor.Star(1024)
//	rng := rumor.NewRNG(42)
//	p, err := rumor.NewVisitExchange(g, 1, rng, rumor.AgentOptions{})
//	if err != nil { ... }
//	res := rumor.Run(g, p, 0)
//	fmt.Println(res.Rounds) // O(log n) w.h.p. (Lemma 2c)
//
// The package is a facade: the implementation lives in internal/ packages
// (graph, core, agents, coupling, experiment, distnet, trace), and the
// exported names here are aliases and thin wrappers over them.
package rumor

import (
	"rumor/internal/async"
	"rumor/internal/core"
	"rumor/internal/coupling"
	"rumor/internal/distnet"
	"rumor/internal/experiment"
	"rumor/internal/graph"
	"rumor/internal/trace"
	"rumor/internal/xrand"
)

// RNG is the deterministic random number generator used throughout the
// library. Identical seeds reproduce identical runs.
type RNG = xrand.RNG

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// DeriveSeed returns the i-th child seed of seed, for spawning independent
// trial streams.
func DeriveSeed(seed uint64, i int) uint64 { return xrand.Derive(seed, i) }

// Graph is an immutable simple undirected graph in CSR form.
type Graph = graph.Graph

// Vertex identifies a vertex; vertices are dense in [0, N()).
type Vertex = graph.Vertex

// Graph generators for every family used in the paper.
var (
	// Star returns the star S_n of Fig. 1(a) with the given number of leaves.
	Star = graph.Star
	// DoubleStar returns the double star S²_n of Fig. 1(b).
	DoubleStar = graph.DoubleStar
	// HeavyBinaryTree returns the heavy binary tree B_n of Fig. 1(c).
	HeavyBinaryTree = graph.HeavyBinaryTree
	// SiameseHeavyTree returns the Siamese heavy binary tree D_n of Fig. 1(d).
	SiameseHeavyTree = graph.SiameseHeavyTree
	// CycleStarsCliques returns the cycle-of-stars-of-cliques of Fig. 1(e).
	CycleStarsCliques = graph.CycleStarsCliques
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Cycle returns the n-cycle.
	Cycle = graph.Cycle
	// Path returns the n-vertex path.
	Path = graph.Path
	// BinaryTree returns a complete binary tree.
	BinaryTree = graph.BinaryTree
	// Hypercube returns the dim-dimensional hypercube (d = log2 n regular).
	Hypercube = graph.Hypercube
	// Torus2D returns the rows×cols torus (4-regular).
	Torus2D = graph.Torus2D
	// Grid2D returns the rows×cols grid.
	Grid2D = graph.Grid2D
	// RingOfCliques returns k cliques of size s joined in a ring by perfect
	// matchings ((s+1)-regular).
	RingOfCliques = graph.RingOfCliques
	// CliquePath returns the paper's "path of d-cliques" (broadcast Ω(n)).
	CliquePath = graph.CliquePath
	// GraphFromSpec builds any family from a "family:params" spec (see
	// cmd/rumor -help for the grammar) and a graph seed. The random
	// families — randreg:N,D, gnp:N,P, chunglu:N,B,D and barabasi:N,M (the
	// social-network model of [12, 17]) — map a seed to the same
	// realization cmd/graphgen -seed, cmd/rumor -seed and the service's
	// graphSeed build; deterministic families ignore the seed.
	GraphFromSpec = graph.FromSpec
	// DecodeGraph parses a graph in the text format written by
	// (*Graph).Encode.
	DecodeGraph = graph.Decode
)

// Graph algorithms.
var (
	// BFS returns BFS distances from a source.
	BFS = graph.BFS
	// IsConnected reports graph connectivity.
	IsConnected = graph.IsConnected
	// IsBipartite reports whether the graph is 2-colorable.
	IsBipartite = graph.IsBipartite
	// Diameter returns the exact diameter (all-pairs BFS).
	Diameter = graph.Diameter
	// DiameterEstimate returns the double-sweep diameter lower bound.
	DiameterEstimate = graph.DiameterEstimate
	// GiantComponent extracts the largest connected component (with a
	// new-to-old vertex mapping) from a possibly disconnected graph.
	GiantComponent = graph.GiantComponent
)

// Process is one protocol trial, as the constructors below return it (see
// core.Process for the contract; only core implements it).
type Process = core.Process

// Result records one completed or cut-off run.
type Result = core.Result

// Protocol options.
type (
	// PushOptions configures the push protocol.
	PushOptions = core.PushOptions
	// PushPullOptions configures the push-pull protocol.
	PushPullOptions = core.PushPullOptions
	// AgentOptions configures visit-exchange, meet-exchange, and the hybrid.
	AgentOptions = core.AgentOptions
	// MoveObserver receives push-pull's neighbor calls, or the agent
	// traversals of visit-exchange, meet-exchange and the hybrid.
	MoveObserver = core.MoveObserver
)

// Laziness policy values for AgentOptions.Lazy.
const (
	// LazyAuto uses lazy walks exactly on bipartite graphs (the paper's
	// convention for meet-exchange).
	LazyAuto = core.LazyAuto
	// LazyOff forces simple walks.
	LazyOff = core.LazyOff
	// LazyOn forces lazy walks.
	LazyOn = core.LazyOn
)

// Protocol constructors.
var (
	// NewPush builds the push protocol of Section 3 as a Process (one
	// trial of the engine's push bundle).
	NewPush = core.NewPush
	// NewPushPull builds the push-pull protocol of Section 3 as a Process
	// (one trial of the engine's push-pull bundle).
	NewPushPull = core.NewPushPull
	// NewVisitExchange builds the visit-exchange protocol of Section 3 as
	// a Process (one trial of the engine's visit-exchange bundle).
	NewVisitExchange = core.NewVisitExchange
	// NewMeetExchange builds the meet-exchange protocol of Section 3 as a
	// Process (one trial of the engine's meet-exchange bundle).
	NewMeetExchange = core.NewMeetExchange
	// NewHybrid builds the combined push-pull + visit-exchange protocol as
	// a Process (one trial of the engine's hybrid bundle).
	NewHybrid = core.NewHybrid
	// Run drives a Process to completion (or a round bound).
	Run = core.Run
	// RunMany executes independent trials in parallel.
	RunMany = core.RunMany
	// AgentCount converts an agent density α into |A|.
	AgentCount = core.AgentCount
)

// Coupling exposes the executable proof machinery of Sections 5-6.
type (
	// CouplingConfig configures a coupled push/visit-exchange run.
	CouplingConfig = coupling.Config
	// CouplingResult carries the coupled broadcast times, C-counters, and
	// canonical-walk data.
	CouplingResult = coupling.Result
)

// RunCoupled executes one coupled realization of push and visit-exchange
// sharing their per-vertex neighbor choices (Section 5.1's coupling).
var RunCoupled = coupling.Run

// OddEvenResult carries the Section 6 (odd-even) coupling outcome.
type OddEvenResult = coupling.OddEvenResult

// RunCoupledOddEven executes the odd-even coupling of Section 6, which
// bounds visit-exchange by push on regular graphs (Lemma 22's statistic is
// exposed via MaxSlowdown).
var RunCoupledOddEven = coupling.RunOddEven

// Multi-rumor visit-exchange: many rumors, injected over time, sharing one
// agent system (the Section 3 motivation).
type (
	// Rumor is one rumor's source vertex and injection round.
	Rumor = core.Rumor
	// MultiRumorResult reports per-rumor broadcast times.
	MultiRumorResult = core.MultiRumorResult
)

// RunMultiRumor drives a multi-rumor visit-exchange run to completion.
var RunMultiRumor = core.RunMultiRumor

// Asynchronous rumor spreading (unit-rate Poisson clocks, Section 2's
// related-work model).
type (
	// AsyncConfig configures an asynchronous run.
	AsyncConfig = async.Config
	// AsyncResult reports an asynchronous run (continuous time units).
	AsyncResult = async.Result
)

// Asynchronous protocol names.
const (
	// AsyncPush is asynchronous push.
	AsyncPush = async.Push
	// AsyncPushPull is asynchronous push-pull.
	AsyncPushPull = async.PushPull
)

// RunAsync simulates asynchronous rumor spreading: a unit-rate Poisson
// clock per vertex, run as one superposed clock of rate n.
var RunAsync = async.Run

// Distributed runtime (one goroutine per vertex).
type (
	// DistConfig configures a distributed run.
	DistConfig = distnet.Config
	// DistResult reports a distributed run.
	DistResult = distnet.Result
)

// Distributed protocol names.
const (
	// DistPush runs push over the goroutine-per-node runtime.
	DistPush = distnet.Push
	// DistPushPull runs push-pull over the goroutine-per-node runtime.
	DistPushPull = distnet.PushPull
)

// RunDistributed executes a protocol with one goroutine per vertex and
// mailbox message passing.
var RunDistributed = distnet.Run

// DistAgentConfig configures a distributed visit-exchange run (agents as
// token messages).
type DistAgentConfig = distnet.AgentConfig

// RunDistributedVisitExchange executes visit-exchange over the
// goroutine-per-node runtime, with agents traveling as token messages —
// the paper's "agents are tokens passed between nodes" remark, literally.
var RunDistributedVisitExchange = distnet.RunVisitExchange

// EdgeUsage counts per-edge traversals for bandwidth-fairness analysis.
type EdgeUsage = trace.EdgeUsage

// NewEdgeUsage returns an edge-usage counter; wire its Observe method into
// PushPullOptions.Observer / AgentOptions.Observer.
var NewEdgeUsage = trace.NewEdgeUsage

// Experiment harness: the registry that regenerates every figure and
// theorem table of the paper.
type (
	// Experiment is one registered experiment.
	Experiment = experiment.Spec
	// ExperimentConfig parameterizes an experiment run.
	ExperimentConfig = experiment.Config
	// ExperimentTable is a rendered result table.
	ExperimentTable = experiment.Table
)

// Experiment scale selectors.
const (
	// ScaleFull runs paper-scale sweeps (what `go run ./cmd/experiments`
	// prints, or writes to its -out file).
	ScaleFull = experiment.ScaleFull
	// ScaleSmall runs reduced sweeps for tests and quick benchmarks.
	ScaleSmall = experiment.ScaleSmall
)

var (
	// Experiments returns all registered experiments in presentation order.
	Experiments = experiment.All
	// ExperimentByID finds one experiment.
	ExperimentByID = experiment.ByID
)
