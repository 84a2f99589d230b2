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
// RunMany runs whole trials on a worker pool, and a trial steps each
// round on the goroutine that runs it. Every Result — rounds,
// messages, and the full History — is therefore bit-identical for a given
// seed regardless of GOMAXPROCS; the determinism tests pin this for every
// protocol at GOMAXPROCS 1, 2, and 8. Protocol constructors consume
// exactly one seed value per mechanism from the trial RNG, so the RNG
// RunMany builds from xrand.TrialSeed(seed, trial) fully determines each
// trial.
//
// The same contract makes a vertex's round-t call a pure function of
// (seed, vertex, t) that anyone may evaluate (neighborSampler.call), not
// only the caller in its own turn. The call protocols use it to do
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
// # One implementation per protocol
//
// The five protocols are one trial type (trial.go) with an optional call
// half and an optional agent half, which inform one shared set of
// vertices; the constructors differ only in which halves they set. Push
// and push-pull are the call half alone, with the pull direction off or
// on. Visit- and meet-exchange are the agent half alone, with vertex
// memory on or off: without it the vertex set is rebuilt every round from
// the informed agents. The hybrid has both halves. One Step runs each
// phase only when its half is present — the walk step, the call round's
// collect, the agents' deposit, the commit, the agents' pickup — so every
// protocol informs through one copy of each pass, and the agent passes
// keep no per-vertex state beyond a bitset. A trial holds Θ(n) state — bitsets, a walk
// system, a History — and RunMany keeps one trial per worker live, so a
// sweep's memory grows with the processors, not with the trials. The
// agent protocols carry churn, and every protocol but push takes an
// observer.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// Process is one protocol trial bound to a graph, source, and RNG, as the
// protocol constructors return it. It is single-goroutine; RunMany gives
// each trial its own Process. The interface is sealed: only this package
// implements it.
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

	// allAgentsInformed reports whether every agent is informed (false
	// for protocols without agents).
	allAgentsInformed() bool
	// source returns the vertex the rumor started on.
	source() graph.Vertex
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
// maxRounds <= 0) and returns the outcome, on the calling goroutine. The
// per-round loop performs no allocations: History accumulates in pooled
// scratch and is copied out exact-size once at the end.
func Run(g *graph.Graph, p Process, maxRounds int) Result {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	// Processes may arrive pre-stepped (tests drive a few rounds by hand
	// before handing over): drive counts rounds relative to entry, while
	// Run's Rounds, AllAgentsRound, and maxRounds bound are absolute
	// p.Round() values.
	base := p.Round()
	res := drive(g, p, max(maxRounds-base, 0))
	if base > 0 {
		res.Rounds += base
		if res.AllAgentsRound > 0 {
			res.AllAgentsRound += base
		}
	}
	return res
}

// drive steps p until Done or maxRounds more rounds: History[0] is the
// count on entry, each stepped round appends one entry, AllAgentsRound is
// the first round with every agent informed, and a run cut off at
// maxRounds reports Completed false. It is the package's one round
// driver: Run and RunMany both land here.
func drive(g *graph.Graph, p Process, maxRounds int) Result {
	res := Result{Protocol: p.Name(), Graph: g.Name(), Source: p.source(), AllAgentsRound: -1}
	if p.allAgentsInformed() {
		res.AllAgentsRound = 0
	}
	pooled := histPool.Get().(*[]int)
	hist := append((*pooled)[:0], p.InformedCount())
	round := 0
	for !p.Done() && round < maxRounds {
		p.Step()
		round++
		hist = append(hist, p.InformedCount())
		if res.AllAgentsRound < 0 && p.allAgentsInformed() {
			res.AllAgentsRound = round
		}
	}
	res.Rounds = round
	res.Completed = p.Done()
	res.Messages = p.Messages()
	res.History = append(make([]int, 0, len(hist)), hist...)
	*pooled = hist[:0]
	histPool.Put(pooled)
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

// RunMany executes `trials` independent trials and returns their Results
// in trial order. It is RunManyEmit without a tap.
func RunMany(g *graph.Graph, factory Factory, trials, maxRounds int, seed uint64) ([]Result, error) {
	return RunManyEmit(g, factory, trials, maxRounds, seed, nil)
}

// RunManyEmit executes `trials` independent trials on a pool of
// min(GOMAXPROCS, trials) workers that claim trial indices in increasing
// order; each worker builds its trial with factory and drives it to the
// end before claiming the next, so one trial per worker is live. Trial t's
// RNG is xrand.New(xrand.TrialSeed(seed, t)) regardless of scheduling, so
// the returned []Result (in trial order) is identical at any parallelism.
// emit, when non-nil, receives each trial's Result in strict trial order
// as trials complete, before RunManyEmit returns.
//
// A factory error aborts the sweep: workers stop claiming trials once any
// error is recorded (already-claimed trials run to completion), and the
// error of the lowest-numbered failing trial is returned — the same error
// the single-worker path returns for the same seed, since trials are
// claimed in increasing order. Trials past the failure are never emitted;
// everything emitted is final.
func RunManyEmit(g *graph.Graph, factory Factory, trials, maxRounds int, seed uint64, emit EmitFunc) ([]Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("core: trials must be positive, got %d", trials)
	}
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	// Warm the packed walk index, which every protocol samples through,
	// once outside the race. The stationary alias stays lazy behind its
	// sync.Once: only agent placement and churn read it, so a call
	// protocol never builds it.
	g.WalkIndex()
	results := make([]Result, trials)
	em := newOrderedEmitter(emit, results)
	errs := make([]error, trials)
	runTrial := func(t int) {
		p, err := factory(xrand.New(xrand.TrialSeed(seed, t)))
		if err != nil {
			errs[t] = err
			return
		}
		results[t] = drive(g, p, maxRounds)
		em.complete(t)
	}
	workers := min(par.Refresh(), trials)
	if workers == 1 {
		// Single worker: run trials inline, skipping goroutine dispatch.
		for t := range trials {
			if runTrial(t); errs[t] != nil {
				return nil, errs[t]
			}
		}
		return results, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				t := int(next.Add(1)) - 1
				if t >= trials {
					return
				}
				if runTrial(t); errs[t] != nil {
					// Record and stop claiming: trials are claimed in
					// increasing order, so every index below a failing one
					// was claimed and the first non-nil entry of errs is
					// the lowest-numbered failure — exactly what the
					// single-worker path aborts with.
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
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
