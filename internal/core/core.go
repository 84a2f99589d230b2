// Package core implements the paper's four rumor-spreading protocols —
// push, push-pull, visit-exchange, and meet-exchange — plus the hybrid
// push-pull+visit-exchange combination suggested in the paper's
// introduction, all with the exact synchronous-round semantics of Section 3.
//
// Each protocol trial is a Process: its constructor places the rumor at
// the source in round zero, Step executes one synchronous round, and Done
// reports whether the protocol-specific broadcast condition holds (all
// vertices informed for push, push-pull, visit-exchange, and the hybrid;
// all agents informed for meet-exchange). Run drives a Process to
// completion and records the broadcast time.
//
// # Deterministic parallelism
//
// Rounds follow a counter-based randomness contract: every draw a unit
// (vertex or agent) makes in round t comes from the stream keyed
// (protocol seed, unit id, t) — see xrand.NewStream — so no draw depends
// on execution order or on how much randomness other units consumed.
// Within a round, units are resolved in ascending id order and their
// outputs committed in that order, realizing the paper's "ties broken by
// agent id" convention. The engine's only parallelism is across trials:
// RunManyLanes runs whole bundles on a worker pool, and a bundle steps
// each round on the goroutine that runs it. Every Result — rounds,
// messages, and the full History — is therefore bit-identical for a given
// seed regardless of GOMAXPROCS; the determinism tests pin this for every
// protocol at GOMAXPROCS 1, 2, and 8. Protocol constructors consume
// exactly one seed value per independent mechanism from the trial RNG, so
// RunMany's Derive(seed, trial) streams fully determine each trial.
//
// The same contract makes a vertex's round-t call a pure function of
// (seed, vertex, t) that anyone may evaluate (neighborSampler.call), not
// only the caller in its own turn. The fused call protocols use it to do
// less than draw everybody: calls that cannot change state are never
// resolved (boundary mode), and a round is evaluated from whichever side
// of the informed/uninformed cut is cheaper, the other side's calls
// replayed by the neighbors they may have reached — boundary.go states the
// principle and the cost rule. Neither changes a Result: the suites compare
// every side and mode with a plain every-caller round kept in test code,
// and every engine is held to a record of its outcomes
// (testdata/golden.json), push and push-pull also to their exact laws
// (internal/exact).
//
// # Lane-based multi-trial execution
//
// Because every empirical figure is a distribution over many independent
// trials, every protocol also has a fused multi-lane bundle (BatchedCall,
// BatchedAgentExchange, BatchedHybrid): K trials step
// in lockstep through one blocked loop over units per round, with
// per-lane state and per-trial done-masking. Push and push-pull share
// BatchedCall, one call model with the pull direction off or on.
// Visit- and meet-exchange share BatchedAgentExchange, one agent lane with
// vertex memory on or off. Visit-exchange is the hybrid's agent half
// without its calls, and meet-exchange is visit-exchange whose vertex set
// is rebuilt every round from the informed agents: all three inform
// through a deposit pass and one pickup pass over the agents
// (pickupAgents), keeping no per-vertex state beyond a bitset. The
// bundles are the only implementations: every constructor (NewPush,
// NewPushPull, NewVisitExchange, NewMeetExchange, NewHybrid) returns the
// one-lane view of its bundle, which the driver runs as the K = 1 lane
// (see lane.go), so RunMany and RunManyLanes differ only in bundle width.
// The trial lane of the stream keying (xrand.TrialSeed) guarantees lane t
// draws exactly what a one-lane trial t would, so the []Result is
// bit-identical for every seed and K — pinned by the lane-equivalence
// tests at GOMAXPROCS 1 and 8. The agent bundles carry churn, and every
// protocol but push takes an observer at K = 1.
package core

import (
	"fmt"
	"math"
	"sync"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Process is one protocol trial bound to a graph, source, and RNG: the
// one-lane view of the protocol's bundle, which the protocol constructors
// return. It is single-goroutine; RunMany gives each trial its own
// Process. The interface is sealed: only this package implements it.
type Process interface {
	// Name returns the protocol name ("push", "push-pull", ...).
	Name() string
	// Round returns the number of Step calls so far.
	Round() int
	// Step executes one synchronous round.
	Step()
	// Done reports whether the broadcast condition of this protocol holds.
	Done() bool
	// InformedCount returns the number of informed units: vertices for
	// push/push-pull/visit-exchange/hybrid, agents for meet-exchange.
	InformedCount() int
	// Messages returns the cumulative message count: one per neighbor call
	// for push/push-pull, one per agent step for the agent protocols.
	Messages() int64

	// bundle returns the one-lane bundle the drivers step.
	bundle() laneBundle
}

// MoveObserver receives a protocol's channel uses, round by round: for
// push-pull every neighbor call (failed ones included), for visit-exchange,
// meet-exchange and the hybrid every agent traversal (an agent replaced by
// churn traversed nothing and is not reported). The hybrid reports its
// agent channel only, not its push-pull calls. The trace package uses it
// for the bandwidth-fairness accounting of Section 1. Observers add
// overhead; leave nil in benchmarks.
type MoveObserver func(round int, from, to graph.Vertex)

// Result records one completed (or cut off) run.
type Result struct {
	Protocol  string
	Graph     string
	Source    graph.Vertex
	Rounds    int   // rounds until Done; equals MaxRounds if not Completed
	Completed bool  // false if the run hit MaxRounds before Done
	Messages  int64 // cumulative message count
	// AllAgentsRound is the round when every agent became informed, for
	// protocols with agents; -1 otherwise or if never reached.
	AllAgentsRound int
	// History[t] is InformedCount after round t (History[0] is the count
	// after round zero initialization).
	History []int
}

// DefaultMaxRounds bounds a run when the caller passes maxRounds <= 0. It
// is generous: n² rounds exceeds every broadcast time in the paper's
// families by a wide margin at the sizes this repository simulates.
func DefaultMaxRounds(g *graph.Graph) int {
	n := g.N()
	if n < 64 {
		n = 64
	}
	if n > 1<<15 {
		// Cap the quadratic at a ceiling to keep pathological runs bounded.
		return 1 << 30
	}
	return n * n
}

// histPool holds reusable History scratch buffers. Run appends rounds into
// pooled scratch — zero allocations per round once a buffer has grown to a
// workload's typical length — and copies the exact-size result out at the
// end, so Result.History is owned by the caller while the capacity stays
// pooled. DefaultMaxRounds is a quadratic safety bound, not an estimate,
// which is why Run does not reserve maxRounds entries directly.
var histPool = sync.Pool{
	New: func() any {
		b := make([]int, 0, 1024)
		return &b
	},
}

// Run drives p until Done or maxRounds (DefaultMaxRounds-bounded when
// maxRounds <= 0) and returns the outcome. It runs p as the single lane of
// the unified lane driver (see lane.go), on the calling goroutine. The
// per-round loop performs no allocations — History accumulates in pooled
// scratch and is copied out exact-size once at the end — and the
// round/History/finalization semantics are, by construction, those of
// every K-lane bundle.
func Run(g *graph.Graph, p Process, maxRounds int) Result {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	// Processes may arrive pre-stepped (tests drive a few rounds by hand
	// before handing over): the lane driver counts rounds relative to
	// entry, while Run's Rounds, AllAgentsRound, and maxRounds bound are
	// absolute p.Round() values.
	base := p.Round()
	left := max(maxRounds-base, 0)
	var out [1]Result
	driveBatch(g, p.bundle(), left, out[:], nil, 0)
	res := out[0]
	if base > 0 {
		res.Rounds += base
		if res.AllAgentsRound > 0 {
			res.AllAgentsRound += base
		}
	}
	return res
}

// Factory builds one Process for a trial; RunMany derives a distinct seed
// per trial.
type Factory func(rng *xrand.RNG) (Process, error)

// EmitFunc receives completed trial results. The engines call it in
// strict trial order (0, 1, 2, ...) with each trial's final Result,
// serialized under an internal lock — trial t is emitted only after every
// trial below t, regardless of completion order on the pool. Streaming
// consumers (the serving layer's NDJSON endpoint) build on this ordering
// to produce deterministic byte streams. Emit functions must not call
// back into the engine and should return quickly; heavy work belongs on
// the consumer's side of a channel or buffer.
type EmitFunc func(trial int, r Result)

// orderedEmitter serializes out-of-order trial completions into in-order
// EmitFunc calls. A nil *orderedEmitter is valid and inert, so engines
// can call complete unconditionally.
type orderedEmitter struct {
	mu      sync.Mutex
	emit    EmitFunc
	results []Result
	done    []bool
	next    int
}

// newOrderedEmitter returns an emitter flushing from results, or nil when
// emit is nil. results must be the engine's result slice: entry t is read
// inside complete(t), after the worker fully wrote it.
func newOrderedEmitter(emit EmitFunc, results []Result) *orderedEmitter {
	if emit == nil {
		return nil
	}
	return &orderedEmitter{emit: emit, results: results, done: make([]bool, len(results))}
}

// complete marks trial t finished and flushes every consecutive finished
// trial from the front of the order.
func (e *orderedEmitter) complete(t int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.done[t] = true
	for e.next < len(e.done) && e.done[e.next] {
		e.emit(e.next, e.results[e.next])
		e.next++
	}
	e.mu.Unlock()
}

// RunMany executes `trials` independent single-trial processes on the
// unified lane engine at K = 1: each trial is its own bundle, claimed in
// increasing order by a GOMAXPROCS-sized worker pool. Trial t's stream is
// xrand.New(xrand.TrialSeed(seed, t)) regardless of scheduling, so results
// are identical at any parallelism.
//
// A factory error aborts the sweep: workers stop claiming trials once any
// error is recorded (already-claimed trials run to completion), and the
// error of the lowest-numbered failing trial is returned — the same error
// the single-worker path returns for the same seed, since trials are
// claimed in increasing order.
func RunMany(g *graph.Graph, factory Factory, trials, maxRounds int, seed uint64) ([]Result, error) {
	return RunManyLanes(g, serialLanes(factory), trials, maxRounds, seed, 1, nil)
}

// AgentCount converts the paper's agent density α into a concrete |A| =
// max(1, round(α·n)).
func AgentCount(n int, alpha float64) int {
	c := int(math.Round(alpha * float64(n)))
	if c < 1 {
		c = 1
	}
	return c
}

// callerCount returns the number of vertices that place a neighbor call
// each round in the exchange protocols: every non-isolated vertex. An
// isolated vertex has nobody to call (exchange draws mark it with target
// -1), so it must not be charged a message — push-pull and the hybrid use
// this instead of n for their per-round accounting. The scan is cached on
// the (immutable, trial-shared) graph.
func callerCount(g *graph.Graph) int64 {
	return int64(g.PositiveDegreeCount())
}

func checkSource(g *graph.Graph, s graph.Vertex) error {
	if s < 0 || int(s) >= g.N() {
		return fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
	}
	if g.Degree(s) == 0 {
		return fmt.Errorf("core: source %d is isolated (degree 0)", s)
	}
	if g.N() < 2 {
		return fmt.Errorf("core: graph too small (n=%d)", g.N())
	}
	if g.M() == 0 {
		return fmt.Errorf("core: graph has no edges")
	}
	return nil
}
