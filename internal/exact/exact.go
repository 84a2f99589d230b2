// Package exact computes rumor-spreading laws exactly, as an oracle the
// simulation engines did not write: it shares no code with internal/core
// and draws no random numbers. On small graphs it runs the protocol's
// Markov chain over informed subsets; where the paper's analysis has a
// closed form, it evaluates that.
package exact

import (
	"fmt"

	"rumor/internal/graph"
)

// MaxN is the largest graph PushPMF accepts: its state space has 2^n
// informed subsets.
const MaxN = 12

// tail is the law mass PushPMF may leave unfinished.
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
	n := g.N()
	switch {
	case n < 2 || n > MaxN:
		return nil, fmt.Errorf("exact: n = %d outside [2, %d]", n, MaxN)
	case src < 0 || int(src) >= n:
		return nil, fmt.Errorf("exact: source %d out of range", src)
	case !graph.IsConnected(g):
		return nil, fmt.Errorf("exact: %s is disconnected; push never finishes", g.Name())
	case f < 0 || f >= 1:
		return nil, fmt.Errorf("exact: failure probability %g outside [0, 1)", f)
	}
	full := uint32(1)<<n - 1
	cur, next, sends, step := newLaw(n), newLaw(n), newLaw(n), newLaw(n)
	cur.add(1<<src, 1)
	pmf := []float64{0}
	for left := 1.0; left >= tail; {
		for _, s := range cur.on {
			// The senders are s, fixed for the round; their calls are
			// independent, so fold them in one at a time.
			sends.add(s, cur.p[s])
			for u := 0; u < n; u++ {
				if s>>u&1 == 0 {
					continue
				}
				nb := g.Neighbors(graph.Vertex(u))
				hit := (1 - f) / float64(len(nb))
				for _, x := range sends.on {
					m := sends.p[x]
					step.add(x, m*f)
					for _, v := range nb {
						step.add(x|1<<v, m*hit)
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
