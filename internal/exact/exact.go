// Package exact computes rumor-spreading laws exactly, as an oracle the
// simulation engines did not write: it shares no code with internal/core
// or internal/async and draws no random numbers. On small graphs it runs
// the protocol's Markov chain over informed subsets: forward in rounds for
// the law of the synchronous broadcast time, and backward for the mean of
// the asynchronous (continuous-time) one. Where the paper's analysis has a
// closed form, it evaluates that.
package exact

import (
	"fmt"

	"rumor/internal/graph"
)

// MaxN is the largest graph PushPMF, PushPullPMF and AsyncMean accept:
// their state space has 2^n informed subsets.
const MaxN = 12

// tail is the law mass the forward program may leave unfinished.
const tail = 1e-14

// PushPMF returns the law of push's broadcast time from src on the
// connected graph g when every call fails independently with probability
// f: pmf[t] = P(T = t). Push has the paper's snapshot semantics (Section
// 3): in round t every vertex informed before round t calls one uniform
// neighbor, and the call, unless it fails, informs that neighbor; a vertex
// informed in round t first calls in round t+1. The program carries the
// law of the informed set forward one round at a time and stops once less
// than tail of the mass is still unfinished, so 1 − Σ pmf < tail.
func PushPMF(g *graph.Graph, src graph.Vertex, f float64) ([]float64, error) {
	return forward(g, src, f, false)
}

// PushPullPMF is PushPMF for push-pull (Karp et al., the paper's Section
// 3): in round t every vertex calls one uniform neighbor, and the call,
// unless it fails, informs whichever endpoint was uninformed when exactly
// one of the two was informed before round t.
func PushPullPMF(g *graph.Graph, src graph.Vertex, f float64) ([]float64, error) {
	return forward(g, src, f, true)
}

// forward is the program behind PushPMF (every informed vertex calls) and
// PushPullPMF (pull: every vertex calls, and an uninformed caller learns
// from an informed callee).
func forward(g *graph.Graph, src graph.Vertex, f float64, pull bool) ([]float64, error) {
	if err := check(g, src); err != nil {
		return nil, err
	}
	if f < 0 || f >= 1 {
		return nil, fmt.Errorf("exact: failure probability %g outside [0, 1)", f)
	}
	n := g.N()
	full := uint32(1)<<n - 1
	cur, next, sends, step := newLaw(n), newLaw(n), newLaw(n), newLaw(n)
	cur.add(1<<src, 1)
	pmf := []float64{0}
	for left := 1.0; left >= tail; {
		for _, s := range cur.on {
			// The callers and what each call can carry are fixed by s, the
			// informed set before the round; the calls are independent, so
			// fold them in one at a time.
			sends.add(s, cur.p[s])
			for u := 0; u < n; u++ {
				in := s>>u&1 == 1
				if !in && !pull {
					continue
				}
				nb := g.Neighbors(graph.Vertex(u))
				hit := (1 - f) / float64(len(nb))
				for _, x := range sends.on {
					m := sends.p[x]
					step.add(x, m*f)
					for _, v := range nb {
						switch {
						case in:
							step.add(x|1<<v, m*hit) // push (nothing new if v is informed)
						case s>>v&1 == 1:
							step.add(x|1<<u, m*hit) // pull
						default:
							step.add(x, m*hit) // neither endpoint informed
						}
					}
				}
				sends, step = step, sends
				step.reset()
			}
			for _, x := range sends.on {
				next.add(x, sends.p[x])
			}
			sends.reset()
		}
		done := next.p[full]
		pmf = append(pmf, done)
		left -= done
		next.p[full] = 0
		cur.reset()
		for _, x := range next.on {
			cur.add(x, next.p[x])
		}
		next.reset()
	}
	return pmf, nil
}

// check rejects the inputs the subset programs cannot take: too few or
// too many vertices, a source out of range, and a graph the rumor never
// covers.
func check(g *graph.Graph, src graph.Vertex) error {
	n := g.N()
	switch {
	case n < 2 || n > MaxN:
		return fmt.Errorf("exact: n = %d outside [2, %d]", n, MaxN)
	case src < 0 || int(src) >= n:
		return fmt.Errorf("exact: source %d out of range", src)
	case !graph.IsConnected(g):
		return fmt.Errorf("exact: %s is disconnected; the rumor never reaches every vertex", g.Name())
	}
	return nil
}

// AsyncMean returns the mean broadcast time of asynchronous push (pull
// false) or push-pull from src on the connected graph g. Every vertex has
// its own unit-rate Poisson clock (the paper's Section 2) and at each tick
// calls one uniform neighbour. The call informs the callee if only the
// caller knows the rumor and, with pull, the caller if only the callee
// does. The informed set S is then a continuous-time chain that only
// grows: an uninformed v joins at rate
//
//	r_v(S) = Σ_{u ∈ N(v) ∩ S} 1/deg(u) + pull·|N(v) ∩ S|/deg(v),
//
// so with Λ(S) = Σ_v r_v(S) the mean time to cover the graph from S is
// E[S] = (1 + Σ_{v ∉ S} r_v(S)·E[S ∪ v]) / Λ(S), E[V] = 0. Every S ∪ v is
// a larger mask than S, so one pass down from the full set solves it.
func AsyncMean(g *graph.Graph, src graph.Vertex, pull bool) (float64, error) {
	if err := check(g, src); err != nil {
		return 0, err
	}
	n := g.N()
	full := uint32(1)<<n - 1
	mean := make([]float64, full+1)
	for s := full - 1; s > 0; s-- {
		if s>>src&1 == 0 {
			continue // the source is informed from the start
		}
		var total, next float64
		for v := range n {
			if s>>v&1 == 1 {
				continue
			}
			nb := g.Neighbors(graph.Vertex(v))
			rate, in := 0.0, 0
			for _, u := range nb {
				if s>>u&1 == 1 {
					rate += 1 / float64(g.Degree(u)) // u pushes to v
					in++
				}
			}
			if pull {
				rate += float64(in) / float64(len(nb)) // v pulls from S
			}
			total += rate
			next += rate * mean[s|1<<v]
		}
		mean[s] = (1 + next) / total
	}
	return mean[1<<src], nil
}

// law is a sparse probability vector over informed subsets: the masses
// are dense, and on lists the subsets with mass in first-touch order, so
// every sum is taken in one deterministic order.
type law struct {
	p  []float64
	on []uint32
}

func newLaw(n int) *law { return &law{p: make([]float64, 1<<n)} }

func (l *law) add(s uint32, m float64) {
	if m == 0 {
		return
	}
	if l.p[s] == 0 {
		l.on = append(l.on, s)
	}
	l.p[s] += m
}

func (l *law) reset() {
	for _, s := range l.on {
		l.p[s] = 0
	}
	l.on = l.on[:0]
}

// StarPush returns the mean and variance of push's broadcast time from
// the centre of the star with L leaves under failure probability f. Only
// the centre's calls matter (a leaf can only call the informed centre),
// so it is a coupon collector: with k leaves informed the next one comes
// after a geometric wait of success probability q = (1 − f)(L − k)/L,
// mean 1/q and variance (1 − q)/q². The mean is L·H_L/(1 − f).
func StarPush(leaves int, f float64) (mean, variance float64) {
	for k := 0; k < leaves; k++ {
		q := (1 - f) * float64(leaves-k) / float64(leaves)
		mean += 1 / q
		variance += (1 - q) / (q * q)
	}
	return mean, variance
}
