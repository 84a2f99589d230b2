package core

import (
	"reflect"
	"sync"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// collectEmitter records (trial, Result) pairs and checks strict trial
// ordering at record time.
type collectEmitter struct {
	mu     sync.Mutex
	t      *testing.T
	trials []int
	res    []Result
}

func (c *collectEmitter) emit(trial int, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want := len(c.trials); trial != want {
		c.t.Errorf("emitted trial %d, want %d (strict order)", trial, want)
	}
	c.trials = append(c.trials, trial)
	c.res = append(c.res, r)
}

// TestRunManyOneLaneEmitOrderAndEquality: single trials (K = 1 bundles,
// as RunMany runs them) emit in trial order, and emitting changes nothing.
func TestRunManyOneLaneEmitOrderAndEquality(t *testing.T) {
	g := graph.DoubleStar(24)
	const trials = 13
	em := &collectEmitter{t: t}
	factory := func(rng *xrand.RNG) (Process, error) {
		return NewPush(g, 1, rng, PushOptions{})
	}
	results, err := RunManyLanes(g, serialLanes(factory), trials, 0, 42, 1, em.emit)
	if err != nil {
		t.Fatal(err)
	}
	if len(em.res) != trials {
		t.Fatalf("emitted %d results, want %d", len(em.res), trials)
	}
	if !reflect.DeepEqual(em.res, results) {
		t.Fatal("emitted results differ from returned results")
	}
	// Emission is a pure tap: the emit-less run returns identical results.
	plain, err := RunMany(g, factory, trials, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, results) {
		t.Fatal("emitting one-lane results differ from RunMany")
	}
}

func TestRunManyBatchedEmitOrderAndEquality(t *testing.T) {
	g := graph.Star(64)
	const trials = 19                       // 2 full bundles + partial
	for _, maxRounds := range []int{0, 3} { // completion and cutoff paths
		em := &collectEmitter{t: t}
		factory := func(rngs []*xrand.RNG) (LaneProcess, error) {
			return NewBatchedVisitExchange(g, 0, rngs, AgentOptions{})
		}
		results, err := RunManyLanes(g, factory, trials, maxRounds, 7, batchK, em.emit)
		if err != nil {
			t.Fatal(err)
		}
		if len(em.res) != trials {
			t.Fatalf("maxRounds=%d: emitted %d results, want %d", maxRounds, len(em.res), trials)
		}
		if !reflect.DeepEqual(em.res, results) {
			t.Fatalf("maxRounds=%d: emitted results differ from returned results", maxRounds)
		}
		plain, err := RunManyLanes(g, factory, trials, maxRounds, 7, batchK, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, results) {
			t.Fatalf("maxRounds=%d: emitting run differs from the emit-less run", maxRounds)
		}
	}
}
