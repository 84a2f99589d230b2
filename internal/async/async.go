// Package async implements the asynchronous variant of rumor spreading
// discussed in the paper's related work (Section 2): every node is equipped
// with an independent unit-rate Poisson clock and performs one push or
// push-pull exchange at each tick. Sauerwald [41] shows asynchronous push
// matches synchronous push on regular graphs, and Giakkoupis, Nazari &
// Woelfel [27] give tight sync-vs-async relations for push-pull; the
// experiment harness checks the regular-graph correspondence empirically.
//
// n independent unit-rate clocks are one rate-n clock whose every tick
// belongs to a node drawn uniformly at random (Poisson superposition), so
// the simulation keeps one clock: exponential waits of mean 1/n, a uniform
// node per tick, instantaneous exchanges. Broadcast time is reported in
// continuous time units (one unit = one expected activation per node),
// directly comparable to synchronous rounds.
package async

import (
	"fmt"
	"math"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Protocol selects the exchange rule performed at each activation.
type Protocol string

// Supported protocols.
const (
	Push     Protocol = "push"
	PushPull Protocol = "push-pull"
)

// Config configures an asynchronous run.
type Config struct {
	// Protocol selects push or push-pull.
	Protocol Protocol
	// MaxTime bounds the simulated clock; <= 0 means 4·n² time units.
	MaxTime float64
}

// Result reports one asynchronous run.
type Result struct {
	// Time is the continuous broadcast time (last informing activation).
	Time float64
	// Activations counts node activations until completion.
	Activations int64
	// Completed is false if MaxTime was reached first.
	Completed bool
}

// Run simulates the asynchronous protocol on g from source src. It refuses
// a graph the rumor cannot cover: one with an isolated vertex, or one that
// is disconnected.
func Run(g *graph.Graph, src graph.Vertex, rng *xrand.RNG, cfg Config) (Result, error) {
	n := g.N()
	if src < 0 || int(src) >= n {
		return Result{}, fmt.Errorf("async: source %d out of range", src)
	}
	if g.M() == 0 {
		return Result{}, fmt.Errorf("async: graph has no edges")
	}
	for v := range n {
		if g.Degree(graph.Vertex(v)) == 0 {
			return Result{}, fmt.Errorf("async: vertex %d is isolated; its ticks have no neighbour to call", v)
		}
	}
	if !graph.IsConnected(g) {
		return Result{}, fmt.Errorf("async: graph is disconnected; the rumor cannot reach every vertex")
	}
	switch cfg.Protocol {
	case Push, PushPull:
	default:
		return Result{}, fmt.Errorf("async: unknown protocol %q", cfg.Protocol)
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = 4 * float64(n) * float64(n)
	}

	informed := bitset.New(n)
	informed.Set(int(src))
	count := 1

	var res Result
	now := 0.0
	for count < n {
		now += expSample(rng) / float64(n)
		if now > maxTime {
			res.Time = maxTime
			return res, nil
		}
		res.Activations++
		u := graph.Vertex(rng.IntN(n))
		nb := g.Neighbors(u)
		v := nb[rng.IntN(len(nb))]
		iu, iv := informed.Test(int(u)), informed.Test(int(v))
		switch {
		case iu && !iv:
			// push direction: both protocols transmit u -> v.
			informed.Set(int(v))
			count++
			res.Time = now
		case !iu && iv && cfg.Protocol == PushPull:
			// pull direction: only push-pull retrieves v -> u.
			informed.Set(int(u))
			count++
			res.Time = now
		}
	}
	res.Completed = true
	return res, nil
}

// expSample draws Exp(1) by inversion.
func expSample(rng *xrand.RNG) float64 {
	return -math.Log(1 - rng.Float64())
}
