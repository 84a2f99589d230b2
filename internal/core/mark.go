package core

import (
	"math/bits"

	"rumor/internal/graph"
)

// epochMark is a per-vertex boolean reset in O(1) per round by bumping an
// epoch, used for meet-exchange's "does this vertex currently host an
// informed agent" queries. Unlike agents.Occupancy it stores no counts and
// keeps no touched list: marking is a single unconditional store. Each
// meet-exchange lane owns one.
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

// markInformed marks the vertex pos[i] of every agent i set in the bitset
// words aw.
func markInformed(m *epochMark, aw []uint64, pos []graph.Vertex) {
	stamp, epoch := m.stamp, m.epoch
	for wi, wd := range aw {
		for ; wd != 0; wd &= wd - 1 {
			stamp[pos[wi<<6+bits.TrailingZeros64(wd)]] = epoch
		}
	}
}

// marked reports whether v was marked since the last next.
func (m *epochMark) marked(v graph.Vertex) bool { return m.stamp[v] == m.epoch }
