package core

import (
	"math/bits"

	"rumor/internal/bitset"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Exchange-phase helpers shared by push-pull and the hybrid, serial and
// batched. Each is a plain function over concrete state (no per-unit
// indirection lands in a hot loop), so the four engines that perform an
// exchange round share one copy of the collect, commit, and active-draw
// semantics — a fix to any of them lands everywhere at once. The batched
// agent-pickup pass shared by the visit-exchange and hybrid bundles lives
// here too.

// collectExchangeDense appends to pending the transfers of a dense
// exchange round: for each vertex u with a drawn partner targets[u] >= 0,
// if exactly one endpoint is informed, the other becomes pending.
// Evaluated against the pre-commit informed set; targets must hold one
// slot per vertex.
func collectExchangeDense(informed *bitset.Set, targets []graph.Vertex, pending []graph.Vertex) []graph.Vertex {
	for u, v := range targets {
		if v < 0 {
			continue
		}
		iu, iv := informed.Test(u), informed.Test(int(v))
		switch {
		case iu && !iv:
			pending = append(pending, v)
		case !iu && iv:
			pending = append(pending, graph.Vertex(u))
		}
	}
	return pending
}

// collectExchangeDenseWords is collectExchangeDense with the sender-side
// informed test read word-at-a-time: one 64-bit load answers "is u
// informed" for a whole vertex block, and the two uniform blocks — all 64
// senders informed (the common case late in a run) or none (early) —
// drop to a single-branch inner loop. The pending sequence it produces is
// exactly collectExchangeDense's (same iteration order, same pre-commit
// informed reads), so the serial engines that stay on the scalar collect
// cross-validate this path through the serial-vs-batched equivalence
// suites. The batched dense engines (push-pull, hybrid) call this.
func collectExchangeDenseWords(informed *bitset.Set, targets []graph.Vertex, pending []graph.Vertex) []graph.Vertex {
	words := informed.Words()
	n := len(targets)
	for base := 0; base < n; base += 64 {
		w := words[base>>6]
		hi := base + 64
		if hi > n {
			hi = n
		}
		switch w {
		case ^uint64(0):
			// Every sender in the block is informed: only the push
			// direction can transfer. (Ghost bits past Len() are kept
			// clear, so a tail block never takes this arm spuriously.)
			for u := base; u < hi; u++ {
				if v := targets[u]; v >= 0 && !informed.Test(int(v)) {
					pending = append(pending, v)
				}
			}
		case 0:
			// No sender in the block is informed: only the pull direction.
			for u := base; u < hi; u++ {
				if v := targets[u]; v >= 0 && informed.Test(int(v)) {
					pending = append(pending, graph.Vertex(u))
				}
			}
		default:
			for u := base; u < hi; u++ {
				v := targets[u]
				if v < 0 {
					continue
				}
				iu := w>>(uint(u)&63)&1 != 0
				iv := informed.Test(int(v))
				switch {
				case iu && !iv:
					pending = append(pending, v)
				case !iu && iv:
					pending = append(pending, graph.Vertex(u))
				}
			}
		}
	}
	return pending
}

// collectExchangeActive is collectExchangeDense for boundary mode, where
// slot k's sender is srcs[k] (the active list mutates during the commit,
// so the draw phase recorded it).
func collectExchangeActive(informed *bitset.Set, srcs, targets []graph.Vertex, pending []graph.Vertex) []graph.Vertex {
	for k, v := range targets {
		if v < 0 {
			continue
		}
		u := srcs[k]
		iu, iv := informed.Test(int(u)), informed.Test(int(v))
		switch {
		case iu && !iv:
			pending = append(pending, v)
		case !iu && iv:
			pending = append(pending, u)
		}
	}
	return pending
}

// commitExchange commits pending newly informed vertices (duplicates
// commit once), maintaining bnd when boundary is set, and returns the
// updated informed count.
func commitExchange(g *graph.Graph, informed *bitset.Set, bnd *exchangeBoundary, boundary bool, pending []graph.Vertex, count int) int {
	for _, v := range pending {
		if !informed.Test(int(v)) {
			informed.Set(int(v))
			count++
			if boundary {
				bnd.onInformed(g, informed, v)
			}
		}
	}
	return count
}

// drawExchangeActive draws the exchange choice (and failure coin, when
// failTh is nonzero) for each active-list sender in active, recording the
// sender in srcs alongside the target. active, srcs, and targets must be
// equal-length slices; sharded callers pass aligned subranges.
func drawExchangeActive(sampler neighborSampler, seed uint64, active, srcs, targets []graph.Vertex, round, failTh uint64) {
	for k, u := range active {
		s := xrand.NewStream(seed, uint64(u), round)
		v := sampler.sample(u, &s)
		if failTh != 0 && s.Uint64() < failTh {
			v = -1
		}
		srcs[k] = u
		targets[k] = v
	}
}

// collectPickups appends to buf the uninformed agents of bitset words
// [lo, hi) standing on an informed vertex: the sharded, collect-only form
// of pickupAgents, shared by the serial visit-exchange and hybrid.
func collectPickups(informedA, informedV *bitset.Set, pos []graph.Vertex, lo, hi int, buf []int32) []int32 {
	aw := informedA.Words()
	for wi := lo; wi < hi; wi++ {
		inv := ^aw[wi]
		if rem := len(pos) - wi<<6; rem < 64 {
			inv &= 1<<uint(rem) - 1 // mask ghost bits past the last agent
		}
		for ; inv != 0; inv &= inv - 1 {
			if i := wi<<6 + bits.TrailingZeros64(inv); informedV.Test(int(pos[i])) {
				buf = append(buf, int32(i))
			}
		}
	}
	return buf
}

// pickupAgents informs every uninformed agent standing on an informed
// vertex, committing inline in agent-id order (the predicate reads only
// informedV and pos, so inline commits equal a collect-then-commit), and
// returns the updated informed-agent count.
func pickupAgents(informedA *bitset.Set, countA int, informedV *bitset.Set, pos []graph.Vertex) int {
	na := len(pos)
	aw := informedA.Words()
	for wi := range aw {
		inv := ^aw[wi]
		if rem := na - wi<<6; rem < 64 {
			inv &= 1<<uint(rem) - 1 // mask ghost bits past the last agent
		}
		for ; inv != 0; inv &= inv - 1 {
			i := wi<<6 + bits.TrailingZeros64(inv)
			if informedV.Test(int(pos[i])) {
				informedA.Set(i)
				countA++
			}
		}
	}
	return countA
}
