package core

import (
	"fmt"
	"math/bits"

	"rumor/internal/agents"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Rumor describes one rumor in a multi-rumor visit-exchange run: where and
// when it is injected.
type Rumor struct {
	Source graph.Vertex
	// Round is the injection round (0 = present from the start).
	Round int
}

// MultiRumorResult reports a multi-rumor run.
type MultiRumorResult struct {
	// BroadcastRounds[r] is the number of rounds from rumor r's injection
	// until every vertex holds it (-1 if the run was cut off first).
	BroadcastRounds []int
	// Rounds is the total rounds simulated.
	Rounds int
	// Completed reports whether every rumor reached every vertex.
	Completed bool
	// Messages counts agent steps (the token traffic is shared by all
	// rumors — the point of the paper's multi-rumor motivation).
	Messages int64
}

// MultiRumorVisitExchange runs visit-exchange with up to 64 rumors sharing
// one agent system, realizing the setting that motivates the paper's
// stationary-start assumption (Section 3): "several pieces of information
// are generated frequently and distributed in parallel over time by the
// same set of agents, which execute perpetual independent random walks."
//
// Per-rumor semantics are exactly those of visit-exchange; rumors ride the
// same walks, so the token traffic stays |A| messages per round no matter
// how many rumors are in flight.
type MultiRumorVisitExchange struct {
	g      *graph.Graph
	walks  *agents.Walks
	rumors []Rumor

	vMask []uint64 // rumor bits held by each vertex
	aMask []uint64 // rumor bits held by each agent (as of previous rounds)
	vCnt  []int    // vertices holding rumor r
	done  []int    // broadcast round per rumor, -1 until complete
	round int
	msgs  int64
}

// NewMultiRumorVisitExchange builds a multi-rumor run. At most 64 rumors;
// each source must pass the check every protocol's source does (in range,
// not isolated), and injection rounds must be non-negative.
func NewMultiRumorVisitExchange(g *graph.Graph, rumors []Rumor, rng *xrand.RNG, opts AgentOptions) (*MultiRumorVisitExchange, error) {
	if len(rumors) == 0 || len(rumors) > 64 {
		return nil, fmt.Errorf("core: need 1..64 rumors, got %d", len(rumors))
	}
	for i, r := range rumors {
		if err := checkSource(g, r.Source); err != nil {
			return nil, fmt.Errorf("rumor %d: %w", i, err)
		}
		if r.Round < 0 {
			return nil, fmt.Errorf("core: rumor %d has negative injection round", i)
		}
	}
	w, err := agents.New(g, opts.walkConfig(g, false), rng)
	if err != nil {
		return nil, fmt.Errorf("multi-rumor: %w", err)
	}
	m := &MultiRumorVisitExchange{
		g:      g,
		walks:  w,
		rumors: append([]Rumor(nil), rumors...),
		vMask:  make([]uint64, g.N()),
		aMask:  make([]uint64, w.N()),
		vCnt:   make([]int, len(rumors)),
		done:   make([]int, len(rumors)),
	}
	for i := range m.done {
		m.done[i] = -1
	}
	m.inject(0)
	return m, nil
}

// inject places all rumors scheduled for the given round: the source vertex
// gets the rumor, and so do agents standing on it (round-zero semantics of
// Section 3, applied at the injection round).
func (m *MultiRumorVisitExchange) inject(round int) {
	for r, ru := range m.rumors {
		if ru.Round != round {
			continue
		}
		bit := uint64(1) << uint(r)
		if m.vMask[ru.Source]&bit == 0 {
			m.vMask[ru.Source] |= bit
			m.vCnt[r]++
		}
		for i, p := range m.walks.Positions() {
			if p == ru.Source {
				m.aMask[i] |= bit
			}
		}
		m.checkDone(r, round)
	}
}

func (m *MultiRumorVisitExchange) checkDone(r, round int) {
	if m.done[r] < 0 && m.vCnt[r] == m.g.N() {
		m.done[r] = round - m.rumors[r].Round
	}
}

// Round returns the rounds simulated so far.
func (m *MultiRumorVisitExchange) Round() int { return m.round }

// Done reports whether every rumor has reached every vertex.
func (m *MultiRumorVisitExchange) Done() bool {
	for _, d := range m.done {
		if d < 0 {
			return false
		}
	}
	return true
}

// VertexCount returns how many vertices hold rumor r.
func (m *MultiRumorVisitExchange) VertexCount(r int) int { return m.vCnt[r] }

// Step advances one synchronous round with per-rumor visit-exchange
// semantics: a vertex learns the rumors its visitors held before this
// round; an agent then learns everything its current vertex holds
// (including rumors delivered this round by other agents).
func (m *MultiRumorVisitExchange) Step() {
	m.round++
	m.walks.Step()
	m.msgs += int64(m.walks.N())
	for _, id := range m.walks.Respawned() {
		m.aMask[id] = 0
	}
	pos := m.walks.Positions()
	// Pass 1: agents deposit previously held rumors.
	for i, v := range pos {
		if carry := m.aMask[i]; carry != 0 {
			if newBits := carry &^ m.vMask[v]; newBits != 0 {
				m.vMask[v] |= newBits
				for b := newBits; b != 0; b &= b - 1 {
					r := bits.TrailingZeros64(b)
					m.vCnt[r]++
					m.checkDone(r, m.round)
				}
			}
		}
	}
	// Injections scheduled for this round happen after deposits, matching
	// the single-rumor round-zero semantics.
	m.inject(m.round)
	// Pass 2: agents pick up everything their vertex now holds.
	for i, v := range pos {
		m.aMask[i] |= m.vMask[v]
	}
}

// RunMultiRumor drives the process until every rumor is fully broadcast or
// maxRounds (<= 0 means the DefaultMaxRounds bound).
func RunMultiRumor(g *graph.Graph, rumors []Rumor, rng *xrand.RNG, opts AgentOptions, maxRounds int) (MultiRumorResult, error) {
	m, err := NewMultiRumorVisitExchange(g, rumors, rng, opts)
	if err != nil {
		return MultiRumorResult{}, err
	}
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(g)
		// Late injections need extra budget.
		last := 0
		for _, r := range rumors {
			if r.Round > last {
				last = r.Round
			}
		}
		maxRounds += last
	}
	for !m.Done() && m.round < maxRounds {
		m.Step()
	}
	return MultiRumorResult{
		BroadcastRounds: append([]int(nil), m.done...),
		Rounds:          m.round,
		Completed:       m.Done(),
		Messages:        m.msgs,
	}, nil
}
