package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// The batched/serial equivalence contract: for every agent protocol, seed,
// and batch width K, RunManyLanes must return []Result bit-identical to
// RunMany — Rounds, Completed, Messages, AllAgentsRound, and the full
// History per trial — at any GOMAXPROCS. These tests pin K in {1, 2, 7}
// (one lane, partial bundle, prime width straddling nothing) at GOMAXPROCS
// 1 and 8, each protocol against its plain round of plain_test.go.

func batchedProtos(g *graph.Graph, s graph.Vertex) []laneProto {
	return []laneProto{
		{
			name: "visit-exchange",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainVisitExchange(g, s, rng, AgentOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedVisitExchange(g, s, rngs, AgentOptions{})
			},
		},
		{
			name: "meet-exchange",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainMeetExchange(g, s, rng, AgentOptions{})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedMeetExchange(g, s, rngs, AgentOptions{})
			},
		},
		{
			name: "meet-exchange-lazy",
			serial: func(rng *xrand.RNG) (Process, error) {
				return plainMeetExchange(g, s, rng, AgentOptions{Lazy: LazyOn})
			},
			batched: func(rngs []*xrand.RNG) (LaneProcess, error) {
				return NewBatchedMeetExchange(g, s, rngs, AgentOptions{Lazy: LazyOn})
			},
		},
	}
}

func atGOMAXPROCS[T any](t *testing.T, procs int, f func() T) T {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	par.Refresh()
	defer func() {
		runtime.GOMAXPROCS(prev)
		par.Refresh()
	}()
	return f()
}

// TestBatchedEquivalence: batched results equal serial RunMany results for
// K trials, per trial, on mixed-degree (star: branchless select loops,
// also bipartite so plain meetx goes lazy) and uniform-degree (hypercube)
// graphs, at GOMAXPROCS 1 and 8 (see compareLanes).
func TestBatchedEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Hypercube(9), // n = 512, uniform degree 9 (multiply-shift class)
		graph.Star(601),    // extreme degree mix, bipartite
	}
	const seed = 1313
	for _, g := range graphs {
		for _, pc := range batchedProtos(g, 0) {
			for _, k := range []int{1, 2, 7} {
				compareLanes(t, g, pc, k, 0, seed)
			}
		}
	}
}

// TestBatchedEquivalenceMaxRounds: a lane cut off at maxRounds must report
// the same truncated Result (Completed false, Rounds == maxRounds, partial
// History) as the serial path.
func TestBatchedEquivalenceMaxRounds(t *testing.T) {
	g := graph.Star(301)
	const seed, k, maxRounds = 99, 4, 3
	serial, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
		return NewVisitExchange(g, 0, rng, AgentOptions{})
	}, k, maxRounds, seed)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunManyLanes(g, func(rngs []*xrand.RNG) (LaneProcess, error) {
		return NewBatchedVisitExchange(g, 0, rngs, AgentOptions{})
	}, k, maxRounds, seed, batchK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, batched) {
		t.Errorf("truncated batched results diverge from serial:\nserial:  %+v\nbatched: %+v", serial, batched)
	}
}

// TestRunManyBatchedManyBundles: trials spanning several bundles (batchK=8,
// so 19 trials is 3 bundles with a partial tail) still match serial.
func TestRunManyBatchedManyBundles(t *testing.T) {
	g := graph.Hypercube(7)
	const seed, trials = 7, 19
	serial, err := RunMany(g, func(rng *xrand.RNG) (Process, error) {
		return NewVisitExchange(g, 0, rng, AgentOptions{})
	}, trials, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunManyLanes(g, func(rngs []*xrand.RNG) (LaneProcess, error) {
		return NewBatchedVisitExchange(g, 0, rngs, AgentOptions{})
	}, trials, 0, seed, batchK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, batched) {
		t.Error("multi-bundle batched results diverge from serial")
	}
}

// TestRunManyErrorConsistency: the single-worker and parallel paths of
// RunMany must return the same error for the same seed — the lowest-
// numbered failing trial's — and parallel workers must stop claiming
// trials once a failure is recorded.
func TestRunManyErrorConsistency(t *testing.T) {
	g := graph.Hypercube(6)
	// Deterministic, seed-dependent failure: a trial fails iff its first
	// RNG draw has its low bit set, with the draw embedded in the message
	// so matching errors imply matching trials.
	factory := func(rng *xrand.RNG) (Process, error) {
		u := rng.Uint64()
		if u&1 == 1 {
			return nil, fmt.Errorf("synthetic failure %d", u)
		}
		return NewVisitExchange(g, 0, rng, AgentOptions{})
	}
	const seed, trials = 42, 16
	run := func(procs int) error {
		return atGOMAXPROCS(t, procs, func() error {
			_, err := RunMany(g, factory, trials, 0, seed)
			return err
		})
	}
	errSerial := run(1)
	if errSerial == nil {
		t.Fatal("expected a synthetic failure; adjust the seed")
	}
	for _, procs := range []int{2, 8} {
		errPar := run(procs)
		if errPar == nil || errPar.Error() != errSerial.Error() {
			t.Errorf("GOMAXPROCS=%d error %v != single-worker error %v", procs, errPar, errSerial)
		}
	}
	if !strings.Contains(errSerial.Error(), "synthetic failure") {
		t.Errorf("unexpected error: %v", errSerial)
	}
}

// TestRunManyBatchedFactoryError: batched bundles propagate factory errors
// like RunMany does.
func TestRunManyBatchedFactoryError(t *testing.T) {
	g := graph.Hypercube(5)
	boom := fmt.Errorf("boom")
	_, err := RunManyLanes(g, func(rngs []*xrand.RNG) (LaneProcess, error) {
		return nil, boom
	}, 20, 0, 1, batchK, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected factory error, got %v", err)
	}
}

// TestRunManyBatchedErrorConsistency: like RunMany, the bundle pool must
// return the same error at any worker count — the lowest-numbered failing
// bundle's — and stop claiming bundles once a failure is recorded. 40
// trials span 5 bundles so the parallel path genuinely races.
func TestRunManyBatchedErrorConsistency(t *testing.T) {
	g := graph.Hypercube(6)
	// Deterministic, seed-dependent failure keyed off the bundle's first
	// trial RNG, with the draw embedded so matching errors imply matching
	// bundles.
	factory := func(rngs []*xrand.RNG) (LaneProcess, error) {
		u := rngs[0].Uint64()
		if u&1 == 1 {
			return nil, fmt.Errorf("synthetic bundle failure %d", u)
		}
		return NewBatchedVisitExchange(g, 0, rngs, AgentOptions{})
	}
	const seed, trials = 42, 40
	run := func(procs int) error {
		return atGOMAXPROCS(t, procs, func() error {
			_, err := RunManyLanes(g, factory, trials, 0, seed, batchK, nil)
			return err
		})
	}
	errSerial := run(1)
	if errSerial == nil || !strings.Contains(errSerial.Error(), "synthetic bundle failure") {
		t.Fatalf("expected a synthetic failure, got %v; adjust the seed", errSerial)
	}
	for _, procs := range []int{2, 8} {
		if errPar := run(procs); errPar == nil || errPar.Error() != errSerial.Error() {
			t.Errorf("GOMAXPROCS=%d error %v != single-worker error %v", procs, errPar, errSerial)
		}
	}
}

// TestVisitLaneStateBudget is the engine-memory assertion for both agent
// protocols: an agent lane holds two bitsets, informed vertices and
// informed agents, and no per-vertex array — meet-exchange's vertex set is
// transient, but it is still a bitset. Building a K-lane bundle may
// allocate at most K·(⌈n/64⌉ + ⌈|A|/64⌉) words plus a small constant
// beyond what its walk system allocates. The graph's walk index and
// stationary alias are built first, since the graph caches them for every
// later walk system.
func TestVisitLaneStateBudget(t *testing.T) {
	g := graph.Hypercube(14)
	const k, slack = 4, 2048
	rngs := func() []*xrand.RNG {
		r := make([]*xrand.RNG, k)
		for i := range r {
			r[i] = xrand.New(xrand.TrialSeed(1, i))
		}
		return r
	}
	allocated := func(build func() error) uint64 {
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := build(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	words := func(n int) uint64 { return uint64(n+63) / 64 }
	for _, pc := range []struct {
		name  string
		meet  bool
		build func([]*xrand.RNG) (LaneProcess, error)
	}{
		{"visit-exchange", false, func(r []*xrand.RNG) (LaneProcess, error) { return NewBatchedVisitExchange(g, 0, r, AgentOptions{}) }},
		{"meet-exchange", true, func(r []*xrand.RNG) (LaneProcess, error) { return NewBatchedMeetExchange(g, 0, r, AgentOptions{}) }},
	} {
		cfg := AgentOptions{}.walkConfig(g, pc.meet)
		if _, err := agents.NewBatched(g, cfg, rngs()); err != nil {
			t.Fatal(err)
		}
		walks := allocated(func() error { _, err := agents.NewBatched(g, cfg, rngs()); return err })
		bundle := allocated(func() error { _, err := pc.build(rngs()); return err })
		limit := k*(words(g.N())+words(cfg.Count))*8 + slack
		if lane := bundle - walks; lane > limit {
			t.Errorf("%s lane state: %d bytes over the walk system's %d, want at most %d (K·(⌈n/64⌉+⌈|A|/64⌉)·8 + %d)",
				pc.name, lane, walks, limit, slack)
		}
	}
}

// BenchmarkBatchedAgentExchange times a 16-trial point of each agent
// protocol on a tail-bound graph, where visit-exchange lanes spend most
// rounds with every agent informed (collectDeposits' position scan), and
// on a regular graph larger than L2, where most rounds bit-iterate a
// partly informed agent set.
func BenchmarkBatchedAgentExchange(b *testing.B) {
	for _, g := range []*graph.Graph{graph.HeavyBinaryTree(9), graph.Hypercube(15)} {
		for _, pc := range agentProtos(g, 0, AgentOptions{}) {
			b.Run(pc.name+"/"+g.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunManyLanes(g, pc.batched, 16, 0, 1, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
