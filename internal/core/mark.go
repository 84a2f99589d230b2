package core

import (
	"math/bits"
	"sync/atomic"

	"rumor/internal/graph"
)

// epochMark is a per-vertex boolean reset in O(1) per round by bumping an
// epoch, used for "does this vertex currently host an informed agent"
// queries. Unlike agents.Occupancy it stores no counts and keeps no
// touched list: marking is a single unconditional store, which also makes
// it safe to mark from concurrent shards (markInformed: all writers store
// the same epoch value through the atomic API, and readers run strictly
// after the parallel phase's barrier).
type epochMark struct {
	stamp []uint32
	epoch uint32
}

func newEpochMark(n int) *epochMark {
	return &epochMark{stamp: make([]uint32, n)}
}

// next invalidates all marks. The first usable epoch is 1; on the (never
// in practice) epoch wrap the stamps are cleared to keep queries exact.
func (m *epochMark) next() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// markInformed marks the vertex pos[i] of every agent i set in bitset words
// aw[lo:hi]. shared selects atomic stores — a full fence on amd64, so only
// for passes split into concurrent shards, which may stamp the same vertex
// (always with the same epoch); a single shard uses plain stores.
func markInformed(m *epochMark, aw []uint64, pos []graph.Vertex, lo, hi int, shared bool) {
	stamp, epoch := m.stamp, m.epoch
	for wi := lo; wi < hi; wi++ {
		for wd := aw[wi]; wd != 0; wd &= wd - 1 {
			p := pos[wi<<6+bits.TrailingZeros64(wd)]
			if shared {
				atomic.StoreUint32(&stamp[p], epoch)
			} else {
				stamp[p] = epoch
			}
		}
	}
}

// marked reports whether v was marked since the last next.
func (m *epochMark) marked(v graph.Vertex) bool { return m.stamp[v] == m.epoch }
