package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// The lane-based protocol core.
//
// Every multi-trial run in this package — serial or fused — executes on one
// engine: trials are grouped into bundles of K >= 1 lanes, each bundle is a
// LaneProcess stepping its lanes in lockstep, and driveBatch drives every
// bundle with identical round/History/finalization semantics. The fused
// protocol implementations (BatchedPush, BatchedPushPull,
// BatchedVisitExchange, BatchedMeetExchange, BatchedHybrid) are
// LaneProcesses with K > 1; a single trial is the K = 1 special case: a
// one-lane bundle behind a laneView (push, whose bundle is its only
// implementation), or a serial Process behind a processLane. RunMany is
// RunManyLanes at K = 1, so serial and fused sweeps share one worker pool,
// one error discipline, and one emitter.
//
// The contract is strict bit-equivalence across K: lane t draws from
// streams keyed by the trial lane (xrand.TrialSeed(seed, t)) exactly as a
// serial trial t would, and finished lanes are masked out without shifting
// any sibling's draws (streams are keyed by round, not by draw count). For
// every protocol, seed, and K, RunManyLanes returns the same []Result —
// Rounds, Messages, AllAgentsRound, and the full History per trial — and
// the lane-equivalence tests pin this at GOMAXPROCS 1 and 8 for K in
// {1, 2, 7}.

// LaneProcess is a bundle of K independent trials of one protocol stepping
// in lockstep. Lanes are completely independent simulations; the bundle
// exists so their hot loops can fuse. K = 1 is a single trial (see
// laneView and processLane).
type LaneProcess interface {
	// Name returns the protocol name, identical to the serial Process.
	Name() string
	// K returns the number of lanes (trials) in the bundle.
	K() int
	// Step executes one synchronous round for every lane with active[t]
	// true. Inactive lanes freeze: no draws, no messages, no state change.
	Step(active []bool)
	// LaneDone reports lane t's broadcast condition.
	LaneDone(t int) bool
	// LaneInformedCount returns lane t's informed units (vertices or
	// agents, matching the serial protocol's InformedCount).
	LaneInformedCount(t int) int
	// LaneMessages returns lane t's cumulative message count.
	LaneMessages(t int) int64
	// LaneAllAgentsInformed reports whether all of lane t's agents are
	// informed (false for protocols without agents).
	LaneAllAgentsInformed(t int) bool
	// Source returns the source vertex (shared by all lanes).
	Source() graph.Vertex
}

// LaneFactory builds one bundle; rngs[t] is trial t's RNG, derived exactly
// as RunMany derives it, and len(rngs) sets K.
type LaneFactory func(rngs []*xrand.RNG) (LaneProcess, error)

// processLane adapts one serial Process to the K = 1 LaneProcess the
// unified driver runs. It is how observer and churn configurations — which
// the fused bundles reject — still execute on the lane engine.
type processLane struct {
	p       Process
	tracker agentTracker // nil when p has no agents
	src     graph.Vertex
}

func newProcessLane(p Process) *processLane {
	l := &processLane{p: p}
	l.tracker, _ = p.(agentTracker)
	if sp, ok := p.(sourced); ok {
		l.src = sp.Source()
	}
	return l
}

func (l *processLane) Name() string              { return l.p.Name() }
func (l *processLane) K() int                    { return 1 }
func (l *processLane) LaneDone(int) bool         { return l.p.Done() }
func (l *processLane) LaneInformedCount(int) int { return l.p.InformedCount() }
func (l *processLane) LaneMessages(int) int64    { return l.p.Messages() }
func (l *processLane) Source() graph.Vertex      { return l.src }
func (l *processLane) Round() int                { return l.p.Round() }

func (l *processLane) Step(active []bool) {
	if active[0] {
		l.p.Step()
	}
}

func (l *processLane) LaneAllAgentsInformed(int) bool {
	return l.tracker != nil && l.tracker.AllAgentsInformed()
}

// setBudget forwards the bundle's budget to the wrapped process.
func (l *processLane) setBudget(b budget) {
	if p, ok := l.p.(budgeted); ok {
		p.setBudget(b)
	}
}

// serialLanes wraps a per-trial Factory as a LaneFactory so single trials
// run on the unified driver, each as laneOf its Process. RunManyLanes only
// ever calls it with one RNG per bundle (batchK 1).
func serialLanes(factory Factory) LaneFactory {
	return func(rngs []*xrand.RNG) (LaneProcess, error) {
		p, err := factory(rngs[0])
		if err != nil {
			return nil, err
		}
		return laneOf(p), nil
	}
}

// laneOf returns the K = 1 bundle that runs p: a view's own bundle, or p
// behind a processLane.
func laneOf(p Process) laneBundle {
	if v, ok := p.(*laneView); ok {
		return v.lp
	}
	return newProcessLane(p)
}

// laneBundle is a K = 1 bundle that takes a shard budget and counts the
// rounds it has stepped.
type laneBundle interface {
	LaneProcess
	budgeted
	Round() int
}

// laneView is the single-trial Process of a protocol whose one-lane
// bundle is its only implementation (NewPush returns one). Run and RunMany
// step the bundle itself (laneOf).
type laneView struct {
	lp     laneBundle
	active []bool
}

func newLaneView(lp laneBundle) *laneView {
	return &laneView{lp: lp, active: []bool{true}}
}

func (v *laneView) Name() string         { return v.lp.Name() }
func (v *laneView) Round() int           { return v.lp.Round() }
func (v *laneView) Done() bool           { return v.lp.LaneDone(0) }
func (v *laneView) InformedCount() int   { return v.lp.LaneInformedCount(0) }
func (v *laneView) Messages() int64      { return v.lp.LaneMessages(0) }
func (v *laneView) Source() graph.Vertex { return v.lp.Source() }
func (v *laneView) setBudget(b budget)   { v.lp.setBudget(b) }
func (v *laneView) Step()                { v.lp.Step(v.active) }

// batchK is the default (and maximum) number of trials fused per bundle.
// Eight lanes amortize the per-unit loop overhead and keep every lane's
// state within a few cache lines per unit block; past ~8 the extra lanes
// mostly grow the working set.
const batchK = 8

// AdaptiveBatchK picks the bundle width for a trials-sized sweep on g: the
// widest K (up to batchK) that still yields at least one bundle per
// processor — on multi-core boxes, small sweeps otherwise fuse into too few
// bundles to occupy the trial pool — halved while the bundle's per-lane
// state (positions, informed bitsets, occupancy stamps, all Θ(n)) would
// overflow a few MB of cache, since wide bundles on huge graphs evict the
// shared CSR and walk index they exist to keep hot. K never affects
// results (lane t's draws are keyed by trial, not by bundle shape), only
// throughput, so the heuristic is free to use GOMAXPROCS. One bundle per
// processor is also what keeps rounds inline: RunManyLanes hands a bundle
// shards only when there are fewer bundles than processors (see budget).
func AdaptiveBatchK(g *graph.Graph, trials int) int {
	if trials <= 1 {
		return 1
	}
	k := batchK
	if k > trials {
		k = trials
	}
	if procs := par.Refresh(); procs > 1 {
		if perWorker := (trials + procs - 1) / procs; perWorker < k {
			k = perWorker
		}
	}
	// ~16 bytes of lane state per vertex/agent (two position buffers, two
	// bitsets, stamps) against an 8 MB budget.
	const laneStateBudget = 8 << 20
	for k > 1 && k*g.N()*16 > laneStateBudget {
		k /= 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// RunManyLanes executes `trials` independent runs on the unified lane
// engine: trials are grouped into bundles of up to k lanes (k <= 0 picks
// AdaptiveBatchK), each bundle built by factory and driven by driveBatch,
// with bundles claimed in increasing order by a GOMAXPROCS-sized worker
// pool. RunManyLanes owns the machine's parallelism: processors go to
// bundles first, and each bundle receives workers/bundles (at least 1) as
// the budget its rounds may shard into — so rounds split only when there
// are fewer bundles than processors (see budget). Trial t's randomness is
// keyed xrand.TrialSeed(seed, t) regardless of bundling, so the returned
// []Result (in trial order) is identical for every k, worker count, and
// budget. emit, when non-nil, receives each trial's
// Result in strict trial order the moment its lane completes — not when
// the whole bundle finishes — before RunManyLanes returns.
//
// A factory error aborts the sweep: workers stop claiming bundles once any
// error is recorded (already-claimed bundles run to completion), and the
// error of the lowest-numbered failing bundle is returned — the same error
// the single-worker path returns for the same seed and k, since bundles
// are claimed in increasing order. Trials past the failure are never
// emitted; everything emitted is final.
func RunManyLanes(g *graph.Graph, factory LaneFactory, trials, maxRounds int, seed uint64, k int, emit EmitFunc) ([]Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("core: trials must be positive, got %d", trials)
	}
	if k <= 0 {
		k = AdaptiveBatchK(g, trials)
	}
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
	}
	// Warm the graph's shared sampling caches once, outside the race.
	g.WalkIndex()
	g.StationaryAlias()
	results := make([]Result, trials)
	em := newOrderedEmitter(emit, results)
	bundles := (trials + k - 1) / k
	errs := make([]error, bundles)
	workers := par.Refresh()
	inner := budget{max(1, workers/bundles), shardWork}
	if workers > bundles {
		workers = bundles
	}
	runBundle := func(b int) {
		t0 := b * k
		t1 := t0 + k
		if t1 > trials {
			t1 = trials
		}
		rngs := make([]*xrand.RNG, t1-t0)
		for i := range rngs {
			rngs[i] = xrand.New(xrand.TrialSeed(seed, t0+i))
		}
		bp, err := factory(rngs)
		if err != nil {
			errs[b] = err
			return
		}
		if bb, ok := bp.(budgeted); ok {
			bb.setBudget(inner)
		}
		driveBatch(g, bp, maxRounds, results[t0:t1], em, t0)
	}
	if workers == 1 {
		// Single worker: run bundles inline, skipping goroutine dispatch.
		for b := 0; b < bundles; b++ {
			runBundle(b)
			if errs[b] != nil {
				return nil, errs[b]
			}
		}
		return results, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				b := int(next.Add(1)) - 1
				if b >= bundles {
					return
				}
				runBundle(b)
				if errs[b] != nil {
					// Record and stop claiming: bundles are claimed in
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

// driveBatch steps a bundle until every lane is done or hits maxRounds,
// filling out (one Result per lane): History[0] is the count after
// round-zero initialization, each stepped round appends one entry,
// AllAgentsRound is the first round with every agent informed, and a lane
// cut off at maxRounds reports Completed false. Each lane's Result is
// finalized — and reported to em as trial t0+lane — the moment the lane
// completes; lanes still running at maxRounds are finalized at the cutoff.
// This is the single round driver of the package: Run and RunManyLanes
// both land here, whatever K.
func driveBatch(g *graph.Graph, bp LaneProcess, maxRounds int, out []Result, em *orderedEmitter, t0 int) {
	k := bp.K()
	active := make([]bool, k)
	// Histories grow in pooled scratch. The slice headers live here, not
	// behind the pooled pointers: those are small heap objects that migrate
	// between workers through the pool, and a length updated every round
	// behind one would share cache lines with other bundles' lanes.
	hists := make([][]int, k)
	pooled := make([]*[]int, k)
	// finalize freezes lane t's Result with the given round count. A lane
	// is never stepped after finalize (Step masks it out), so Messages and
	// Done are stable from here on.
	finalize := func(t, rounds int) {
		res := &out[t]
		res.Rounds = rounds
		res.Completed = bp.LaneDone(t)
		res.Messages = bp.LaneMessages(t)
		res.History = append(make([]int, 0, len(hists[t])), hists[t]...)
		*pooled[t] = hists[t][:0]
		histPool.Put(pooled[t])
		em.complete(t0 + t)
	}
	running := 0
	for t := 0; t < k; t++ {
		res := &out[t]
		res.Protocol = bp.Name()
		res.Graph = g.Name()
		res.Source = bp.Source()
		res.AllAgentsRound = -1
		if bp.LaneAllAgentsInformed(t) {
			res.AllAgentsRound = 0
		}
		pooled[t] = histPool.Get().(*[]int)
		hists[t] = append((*pooled[t])[:0], bp.LaneInformedCount(t))
		if !bp.LaneDone(t) {
			active[t] = true
			running++
		} else {
			finalize(t, 0)
		}
	}
	round := 0
	for running > 0 && round < maxRounds {
		bp.Step(active)
		round++
		for t := 0; t < k; t++ {
			if !active[t] {
				continue
			}
			res := &out[t]
			hists[t] = append(hists[t], bp.LaneInformedCount(t))
			if res.AllAgentsRound < 0 && bp.LaneAllAgentsInformed(t) {
				res.AllAgentsRound = round
			}
			if bp.LaneDone(t) {
				active[t] = false
				running--
				finalize(t, round)
			}
		}
	}
	for t := 0; t < k; t++ {
		if active[t] {
			finalize(t, maxRounds)
		}
	}
}
