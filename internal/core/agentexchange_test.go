package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/par"
	"rumor/internal/xrand"
)

// The agent protocols against their plain references (see equivalence_test.go),
// on larger graphs.

func batchedProtos(g *graph.Graph, s graph.Vertex) []refProto {
	lazy := AgentOptions{Lazy: LazyOn}
	return append(agentProtos(g, s, AgentOptions{}), refProto{
		name:   "meet-exchange-lazy",
		plain:  func(rng *xrand.RNG) (Process, error) { return plainMeetExchange(g, s, rng, lazy) },
		engine: func(rng *xrand.RNG) (Process, error) { return NewMeetExchange(g, s, rng, lazy) },
	})
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

// TestBatchedEquivalence: the agent protocols equal their plain
// references per trial on mixed-degree (star: branchless select loops,
// also bipartite so plain meetx goes lazy) and uniform-degree (hypercube)
// graphs, at GOMAXPROCS 1 and 8 (see compareTrials).
func TestBatchedEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Hypercube(9), // n = 512, uniform degree 9 (multiply-shift class)
		graph.Star(601),    // extreme degree mix, bipartite
	}
	const seed = 1313
	for _, g := range graphs {
		for _, pc := range batchedProtos(g, 0) {
			compareTrials(t, g, pc, 7, 0, seed)
		}
	}
}

// TestBatchedEquivalenceMaxRounds: an agent trial cut off at maxRounds
// must report the same truncated Result (Completed false, Rounds ==
// maxRounds, partial History) as its plain reference.
func TestBatchedEquivalenceMaxRounds(t *testing.T) {
	g := graph.Star(301)
	for _, pc := range batchedProtos(g, 0) {
		compareTrials(t, g, pc, 4, 3, 99)
	}
}

// TestRunManyBatchedManyBundles: a worker runs trial after trial, each on
// the History scratch the previous one grew and returned to the pool, so
// a sweep of many more trials than workers must still equal the plain
// reference trial by trial, at one worker and at two.
func TestRunManyBatchedManyBundles(t *testing.T) {
	g := graph.Hypercube(7)
	const seed, trials = 7, 19
	pc := batchedProtos(g, 0)[0]
	want, err := RunMany(g, pc.plain, trials, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		got := atGOMAXPROCS(t, procs, func() []Result {
			res, err := RunMany(g, pc.engine, trials, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("GOMAXPROCS=%d: %d trials diverge from the plain reference", procs, trials)
		}
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

// TestRunManyBatchedFactoryError: a factory error reaches the caller, and
// the emit tap never sees the failing trial or any trial past it: with a
// failure at trial 5, at any worker count, exactly trials 0..4 are
// emitted.
func TestRunManyBatchedFactoryError(t *testing.T) {
	g := graph.Hypercube(5)
	const seed, failAt = 1, 5
	fail := xrand.New(xrand.TrialSeed(seed, failAt)).Uint64()
	factory := func(rng *xrand.RNG) (Process, error) {
		if rng.Uint64() == fail {
			return nil, fmt.Errorf("boom")
		}
		return NewPush(g, 0, rng, PushOptions{})
	}
	for _, procs := range []int{1, 2, 8} {
		em := &collectEmitter{t: t}
		err := atGOMAXPROCS(t, procs, func() error {
			_, err := RunManyEmit(g, factory, 20, 0, seed, em.emit)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("GOMAXPROCS=%d: expected the factory error, got %v", procs, err)
		}
		if len(em.trials) != failAt {
			t.Errorf("GOMAXPROCS=%d: emitted trials %v, want 0..%d", procs, em.trials, failAt-1)
		}
	}
}

// TestRunManyBatchedErrorConsistency: over 40 trials with several
// failures, every worker count returns the lowest-numbered failing
// trial's error and emits exactly the trials below it.
func TestRunManyBatchedErrorConsistency(t *testing.T) {
	g := graph.Hypercube(6)
	// Deterministic, seed-dependent failure: a trial fails iff its first
	// RNG draw has its low bit set, with the draw embedded so matching
	// errors imply matching trials.
	factory := func(rng *xrand.RNG) (Process, error) {
		if u := rng.Uint64(); u&1 == 1 {
			return nil, fmt.Errorf("synthetic trial failure %d", u)
		}
		return NewVisitExchange(g, 0, rng, AgentOptions{})
	}
	const seed, trials = 42, 40
	run := func(procs int) (error, []int) {
		em := &collectEmitter{t: t}
		err := atGOMAXPROCS(t, procs, func() error {
			_, err := RunManyEmit(g, factory, trials, 0, seed, em.emit)
			return err
		})
		return err, em.trials
	}
	errSerial, emitted := run(1)
	if errSerial == nil || !strings.Contains(errSerial.Error(), "synthetic trial failure") {
		t.Fatalf("expected a synthetic failure, got %v; adjust the seed", errSerial)
	}
	for _, procs := range []int{2, 8} {
		errPar, got := run(procs)
		if errPar == nil || errPar.Error() != errSerial.Error() {
			t.Errorf("GOMAXPROCS=%d error %v != single-worker error %v", procs, errPar, errSerial)
		}
		if !slices.Equal(got, emitted) {
			t.Errorf("GOMAXPROCS=%d emitted %v, single worker %v", procs, got, emitted)
		}
	}
}

// TestTrialStateBudget is the engine-memory assertion, one row per
// protocol at one trial: a call trial (push, push-pull) holds one bitset
// of informed vertices, an agent trial (visit- and meet-exchange) two —
// informed vertices and informed agents; meet-exchange's vertex set is
// transient, but it is still a bitset — and no per-vertex array. Building
// a call trial may allocate at most ⌈n/64⌉·8 bytes plus a small constant
// beyond the graph's cached walk index; an agent trial at most
// (⌈n/64⌉ + ⌈|A|/64⌉)·8 plus the constant beyond what its walk system
// allocates. The hybrid is held to both at once: its one vertex bitset is
// a call trial's, and with its agent bitset makes an agent trial's two.
// The graph's caches (walk index, stationary alias, degree counts) are
// built first, since every later trial shares them.
func TestTrialStateBudget(t *testing.T) {
	g := graph.Hypercube(14)
	const slack = 2048
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
	bytes := func(bits int) uint64 { return uint64(bits+63) / 64 * 8 }
	ao := AgentOptions{}
	for _, pc := range []struct {
		name  string
		walks bool // the trial has a walk system
		lazy  bool // which resolves LazyAuto as meet-exchange does
		build func(*xrand.RNG) (Process, error)
	}{
		{"push", false, false, func(r *xrand.RNG) (Process, error) { return NewPush(g, 0, r, PushOptions{}) }},
		{"push-pull", false, false, func(r *xrand.RNG) (Process, error) { return NewPushPull(g, 0, r, PushPullOptions{}) }},
		{"visit-exchange", true, false, func(r *xrand.RNG) (Process, error) { return NewVisitExchange(g, 0, r, ao) }},
		{"meet-exchange", true, true, func(r *xrand.RNG) (Process, error) { return NewMeetExchange(g, 0, r, ao) }},
		{"hybrid", true, false, func(r *xrand.RNG) (Process, error) { return NewHybrid(g, 0, r, ao) }},
	} {
		if _, err := pc.build(xrand.New(1)); err != nil { // warm the graph's caches
			t.Fatal(err)
		}
		var walks uint64
		limit := bytes(g.N()) + slack
		if pc.walks {
			cfg := ao.walkConfig(g, pc.lazy)
			walks = allocated(func() error { _, err := agents.New(g, cfg, xrand.New(1)); return err })
			limit += bytes(cfg.Count)
		}
		trial := allocated(func() error { _, err := pc.build(xrand.New(1)); return err })
		state := trial - walks
		t.Logf("%s: %d bytes beyond the walk system's %d, limit %d", pc.name, state, walks, limit)
		if state > limit {
			t.Errorf("%s trial state: %d bytes beyond the walk system's %d, want at most %d", pc.name, state, walks, limit)
		}
	}
}

// BenchmarkBatchedAgentExchange times a 16-trial point of each agent
// protocol on a tail-bound graph, where visit-exchange trials spend most
// rounds with every agent informed (markDeposits' position scan), and
// on a regular graph larger than L2, where most rounds bit-iterate a
// partly informed agent set.
func BenchmarkBatchedAgentExchange(b *testing.B) {
	for _, g := range []*graph.Graph{graph.HeavyBinaryTree(9), graph.Hypercube(15)} {
		for _, pc := range agentProtos(g, 0, AgentOptions{}) {
			b.Run(pc.name+"/"+g.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunMany(g, pc.engine, 16, 0, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
